package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition for the Metrics registry.
//
// Registry names follow the pipeline's `<pkg>.<name>` convention
// ("core.reject.chip-area", "bad.predict_us"); exposition maps them to
// legal Prometheus names by prefixing "chop_" and escaping every character
// outside [a-zA-Z0-9_:] to '_'. Counters render as counter families,
// gauges as gauge families (labeled series keep their pre-rendered label
// blocks), histograms as cumulative-bucket histogram families over the
// registry's base-2 buckets. Output is deterministically ordered (sorted
// by the original registry name) so it can be golden-tested and diffed.

// PromName maps a registry metric name to a legal Prometheus metric name:
// "chop_" + the name with every character outside [a-zA-Z0-9_:] replaced
// by '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("chop_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the way Prometheus expects: shortest
// round-trip decimal, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4). Safe on a nil registry (writes nothing).
func (m *Metrics) WriteProm(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	cnames := make([]string, 0, len(m.counters))
	for k := range m.counters {
		cnames = append(cnames, k)
	}
	sort.Strings(cnames)
	for _, k := range cnames {
		n := PromName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, m.counters[k]); err != nil {
			return err
		}
	}

	// Gauges group by base name: one TYPE line per family, then every
	// labeled series of that family in label order.
	gnames := make([]string, 0, len(m.gauges))
	for k := range m.gauges {
		gnames = append(gnames, k)
	}
	sort.Slice(gnames, func(i, j int) bool {
		gi, gj := m.gauges[gnames[i]], m.gauges[gnames[j]]
		if gi.name != gj.name {
			return gi.name < gj.name
		}
		return gi.labels < gj.labels
	})
	lastFamily := ""
	for _, k := range gnames {
		g := m.gauges[k]
		n := PromName(g.name)
		if g.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", n); err != nil {
				return err
			}
			lastFamily = g.name
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", n, g.labels, promFloat(g.val)); err != nil {
			return err
		}
	}

	hnames := make([]string, 0, len(m.hists))
	for k := range m.hists {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, k := range hnames {
		if err := writePromHist(w, PromName(k), m.hists[k]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHist renders one histogram family: cumulative counts at each
// occupied base-2 bucket bound, the mandatory +Inf bucket, then sum and
// count. Empty buckets are elided (Prometheus buckets may be sparse).
func writePromHist(w io.Writer, name string, h *hist) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, promFloat(math.Exp2(float64(b))), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, h.count, name, promFloat(h.sum), name, h.count)
	return err
}

// PromText renders the registry in Prometheus text exposition format.
func (m *Metrics) PromText() string {
	var b strings.Builder
	m.WriteProm(&b) // strings.Builder never errors
	return b.String()
}
