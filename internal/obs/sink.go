package obs

import (
	"bufio"
	"os"

	"chop/internal/resilience"
)

// teeSink fans every event out to several sinks in order.
type teeSink []Sink

// NewTeeSink returns a sink that forwards every event to each of the given
// sinks in order, so one run can feed a file trace and a live consumer (a
// ring buffer, a test harness) simultaneously. Nil sinks are dropped; a
// single remaining sink is returned unwrapped, and nil is returned when
// nothing remains (obs.New then disables tracing).
func NewTeeSink(sinks ...Sink) Sink {
	var keep teeSink
	for _, s := range sinks {
		if s != nil {
			keep = append(keep, s)
		}
	}
	switch len(keep) {
	case 0:
		return nil
	case 1:
		return keep[0]
	}
	return keep
}

// Emit forwards the event to every sink.
func (t teeSink) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// PushSink adapts a function into a Sink, for callers that want events
// pushed into their own code (a channel, an aggregator, a UI) without
// defining a type. The function must be safe for concurrent calls.
type PushSink func(Event)

// Emit calls the function.
func (p PushSink) Emit(ev Event) { p(ev) }

// FileSink writes a JSONL trace to a file through a buffered writer, so hot
// search loops do not pay one write syscall per event (an unbuffered
// os.File sink spends most of its time in the kernel; see
// BenchmarkWriterSink). Close flushes the buffer; events emitted after
// Close are dropped.
type FileSink struct {
	*WriterSink
	f      *os.File
	bw     *bufio.Writer
	inject *resilience.Injector
}

// fileSinkBuffer is the trace buffer size; events are ~100-200 bytes, so
// this batches a few hundred events per syscall.
const fileSinkBuffer = 64 * 1024

// NewFileSink creates (truncating) the named trace file.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, fileSinkBuffer)
	return &FileSink{WriterSink: NewWriterSink(bw), f: f, bw: bw}, nil
}

// Inject installs a fault injector on the sink's write path: every Emit
// fires the "sink.write" site first, so chaos runs can exercise trace-write
// failures without a broken disk.
func (s *FileSink) Inject(inj *resilience.Injector) { s.inject = inj }

// Emit writes one event, firing the injector (if any) first. An injected
// fault latches like a real write error: the trace stops and Close reports
// it.
func (s *FileSink) Emit(ev Event) {
	if s.inject != nil {
		if err := s.inject.Fire("sink.write"); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
			return
		}
	}
	s.WriterSink.Emit(ev)
}

// Close flushes the buffer and closes the file, reporting the first error
// seen during emission, flush or close.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.err == nil {
		// Drop anything emitted after Close instead of writing to a
		// closed file.
		s.err = os.ErrClosed
	}
	return err
}
