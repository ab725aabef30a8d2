// Package xfer implements CHOP's data-transfer machinery (paper sections
// 2.4 and 2.5): creation of data-transfer tasks from a partitioning's cut
// values, pin-bandwidth and transfer-time computation, buffer sizing with
// the paper's formula
//
//	B = D * (ceil(W/l) + X/l)
//
// and the prediction of each data-transfer module (buffer registers, pin
// steering and a PLA controller sized from the wait and transfer times).
package xfer

import (
	"fmt"
	"math"

	"chop/internal/ctrl"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

// External is the pseudo chip/partition index of the outside world.
const External = -1

// ControlPinsPerTask is the number of unshared pins reserved per transfer
// task on each involved chip for handshaking between the distributed
// controllers (paper section 2.4: "reserving enough pins for control
// signals to assure proper communication between distributed controllers").
const ControlPinsPerTask = 2

// Task is one data-transfer task: all values flowing from one partition to
// another (or to/from the external world) per sample.
type Task struct {
	Name string
	// FromPart/ToPart are partition indices; External for the outside world.
	FromPart, ToPart int
	// FromChip/ToChip are chip indices; External for the outside world.
	FromChip, ToChip int
	// Bits is D, the payload size per sample; Values the number of
	// distinct source values.
	Bits, Values int
}

// OnChipOnly reports whether the transfer stays inside a single chip and
// therefore needs no pins, no module and no task scheduling.
func (t Task) OnChipOnly() bool {
	return t.FromChip == t.ToChip && t.FromChip != External
}

// Chips returns the distinct real chip indices involved in the transfer.
func (t Task) Chips() []int {
	var cs []int
	if t.FromChip != External {
		cs = append(cs, t.FromChip)
	}
	if t.ToChip != External && t.ToChip != t.FromChip {
		cs = append(cs, t.ToChip)
	}
	return cs
}

// BuildTasks creates the data-transfer tasks of a partitioning: one task per
// ordered partition pair with data flow whose endpoints sit on different
// chips, plus tasks for primary inputs arriving from and outputs leaving to
// the external world. partChip maps partition index -> chip index.
func BuildTasks(g *dfg.Graph, assign map[int]int, partChip []int) ([]Task, error) {
	chipOf := func(part int) (int, error) {
		if part == External {
			return External, nil
		}
		if part < 0 || part >= len(partChip) {
			return 0, fmt.Errorf("xfer: partition %d has no chip assignment", part)
		}
		return partChip[part], nil
	}
	var tasks []Task
	for _, cut := range g.CutsBetween(assign) {
		fc, err := chipOf(cut.From)
		if err != nil {
			return nil, err
		}
		tc, err := chipOf(cut.To)
		if err != nil {
			return nil, err
		}
		t := Task{
			Name:     taskName(cut.From, cut.To),
			FromPart: cut.From, ToPart: cut.To,
			FromChip: fc, ToChip: tc,
			Bits: cut.Bits, Values: cut.Values,
		}
		if t.OnChipOnly() {
			continue
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

func taskName(from, to int) string {
	f, t := "ext", "ext"
	if from != External {
		f = fmt.Sprintf("P%d", from+1)
	}
	if to != External {
		t = fmt.Sprintf("P%d", to+1)
	}
	return "T:" + f + "->" + t
}

// Bandwidth returns the bus width (pins) a transfer of bits may use over
// the given chips (Task.Chips): the minimum of their pin budgets, capped at
// the payload size (paper section 2.5: "the bandwidth for each data
// transfer task is defined as the minimum bandwidth of all chips
// involved"). budget[c] is the data pins chip c has for transfer payload.
// External endpoints are not chips and impose no limit.
func Bandwidth(bits int, chips, budget []int) int {
	bw := bits
	for _, c := range chips {
		bw = min(bw, budget[c])
	}
	return max(bw, 0)
}

// TransferCycles returns X, the duration of the transfer in transfer-clock
// cycles: ceil(bits / pins). It returns 0 for an empty payload and -1 when
// no pins are available.
func TransferCycles(bits, pins int) int {
	if bits <= 0 {
		return 0
	}
	if pins <= 0 {
		return -1
	}
	return (bits + pins - 1) / pins
}

// BufferBits implements the paper's buffer formula B = D*(ceil(W/l) + X/l):
// D payload bits, W wait time and X transfer time in main-clock cycles, l
// the system initiation interval in main-clock cycles. The second term is
// fractional because of the stair-like storage profile during the transfer.
func BufferBits(d, w, x, l int) int {
	if d <= 0 {
		return 0
	}
	if l <= 0 {
		return d
	}
	b := float64(d) * (math.Ceil(float64(w)/float64(l)) + float64(x)/float64(l))
	bits := int(math.Ceil(b))
	if bits < d && w+x > 0 {
		bits = d // at least one sample resides in the buffer while active
	}
	return bits
}

// Module is the predicted implementation of one data-transfer module: the
// special-purpose hardware unit placed on each chip involved in a transfer
// (paper Fig. 4 and section 2.5).
type Module struct {
	Task Task
	// Wait and Transfer are W and X in main-clock cycles.
	Wait, Transfer int
	// BufferBits is the predicted buffer size B.
	BufferBits int
	// Area is the module area placed on ONE involved chip (buffer +
	// steering + controller).
	Area stats.Triplet
	// CtrlDelay is the PLA controller delay added to the clock cycle of
	// chips carrying this module.
	CtrlDelay stats.Triplet
	// Pins is the payload bus width used during the transfer.
	Pins int
}

// PredictModule sizes the data-transfer module for task t into m, given
// its wait time W, transfer time X (main cycles), bus width, and the
// system initiation interval l. The controller is a PLA predicted with the
// same methods as BAD (paper: "the wait and data transfer times are used
// to predict the number of inputs, outputs and product terms of a PLA").
// It overwrites every field of m; the task and module travel by pointer,
// so a trial's module loop copies only the task into its module.
func PredictModule(m *Module, t *Task, wait, transfer, pins, l int, library *lib.Library) {
	buf := BufferBits(t.Bits, wait, transfer, l)
	// Controller states: one per wait cycle bucket and per transfer beat,
	// plus idle. Signals: per-pin enables plus buffer word selects.
	states := 1 + transfer
	if l > 0 {
		states += (wait + l - 1) / l
	} else {
		states += wait
	}
	if states < 2 {
		states = 2
	}
	words := 1
	if t.Bits > 0 {
		words = (buf + t.Bits - 1) / t.Bits
	}
	pla := ctrl.ForFSM(states, 1, pins+words)
	bufArea := float64(buf) * library.Register.Area
	// Pin steering: each payload pin is driven through a 2:1 mux so the
	// chip's pins can be shared among transfer tasks.
	muxArea := float64(pins) * library.Mux.Area
	m.Task = *t
	m.Wait, m.Transfer, m.BufferBits, m.Pins = wait, transfer, buf, pins
	m.Area = stats.Sum(stats.Exact(bufArea+muxArea), pla.Area())
	m.CtrlDelay = pla.Delay()
}

// MemoryControlPins returns the unshared control pins a chip must reserve
// for its off-chip traffic to the given memory data-pin footprints.
func MemoryControlPins(dataPinsPerBlock []int) int {
	total := 0
	for _, p := range dataPinsPerBlock {
		total += p
	}
	return total
}
