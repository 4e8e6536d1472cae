package trace

import (
	"repro/internal/protowire"
	"repro/internal/simclock"
)

// A RunLayout describes the events one device run emits: their names, in
// order, all on one device, and how the run's clock moves from one event
// to the next. Each event starts where the one before it ends, except that
// when Paired the first two start together and the third starts where the
// first ends: an infeed dequeue and the queue-side half of its transfer,
// which overlap. Every run of a program shares its layout, which must not
// change.
type RunLayout struct {
	Names  []string
	Device Device
	Paired bool
}

// Advance returns how far a run's clock moves from event k's Start to
// event k+1's, given the run's durations.
func (l *RunLayout) Advance(durs []simclock.Duration, k int) simclock.Duration {
	if l.Paired && k < 2 {
		if k == 0 {
			return 0
		}
		return durs[0]
	}
	return durs[k]
}

// A Segment is a stretch of a profile window's events, in Start order, as
// an event source hands it out. Either Events holds the events whole, or
// Run is set and the segment is events [Lo, Hi) of one device run: named
// by Run, of step Step, with durations Durs[Lo:Hi] (Durs is the whole
// run's), the first starting at Start and each later one where Run's clock
// puts it; no duration is negative. A run's events are built only by a
// consumer that needs them
// whole; the Reducer and the wire encoder read the run as it is. A segment
// is valid only during the call it is handed to, and is only read.
type Segment struct {
	Events []Event

	Run    *RunLayout
	Step   int64
	Durs   []simclock.Duration
	Lo, Hi int
	Start  simclock.Time
}

// Len returns how many events the segment holds.
func (s *Segment) Len() int {
	if s.Run == nil {
		return len(s.Events)
	}
	return s.Hi - s.Lo
}

// AppendEvents appends the segment's events to dst and returns the
// extended slice.
func (s *Segment) AppendEvents(dst []Event) []Event {
	if s.Run == nil {
		return append(dst, s.Events...)
	}
	at := s.Start
	for k := s.Lo; k < s.Hi; k++ {
		dst = append(dst, Event{Name: s.Run.Names[k], Device: s.Run.Device, Start: at, Dur: s.Durs[k], Step: s.Step})
		at = at.Add(s.Run.Advance(s.Durs, k))
	}
	return dst
}

// Cut returns the segment's first n events, n at most Len, and the rest,
// as two segments.
func (s Segment) Cut(n int) (head, tail Segment) {
	head, tail = s, s
	if s.Run == nil {
		head.Events, tail.Events = s.Events[:n:n], s.Events[n:]
		return head, tail
	}
	head.Hi, tail.Lo = s.Lo+n, s.Lo+n
	for k := s.Lo; k < s.Lo+n; k++ {
		tail.Start = tail.Start.Add(s.Run.Advance(s.Durs, k))
	}
	return head, tail
}

// AppendSegment appends the event batch encoding of the segment's events
// to dst, the bytes AppendEvents writes for them, and returns the
// extended slice.
func AppendSegment(dst []byte, s *Segment) []byte {
	if s.Run == nil {
		return AppendEvents(dst, s.Events)
	}
	at := s.Start
	for k := s.Lo; k < s.Hi; k++ {
		dst = appendEvent(dst, s.Run.Names[k], s.Run.Device, at, s.Durs[k], s.Step)
		at = at.Add(s.Run.Advance(s.Durs, k))
	}
	return dst
}

// DecodeEvents decodes an event batch (AppendEvents' encoding) into buf
// a chunk at a time and hands each chunk to fn, every chunk full but the
// last and none empty, without ever holding the batch's events all at
// once. Names are interned in names, so the events of one
// operator share one string, which the Reducer finds without hashing, and
// a batch of any length allocates only for its distinct names. A chunk is
// valid only during the call. It returns the first decoding error, after
// handing on the chunks decoded before it.
func DecodeEvents(data []byte, buf []Event, names map[string]string, fn func(chunk []Event)) error {
	d := protowire.NewDecoder(data)
	n := 0
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return err
		}
		if f != 1 {
			if err := d.Skip(ty); err != nil {
				return err
			}
			continue
		}
		raw, err := d.Raw()
		if err != nil {
			return err
		}
		ev, err := decodeEvent(raw, names)
		if err != nil {
			return err
		}
		buf[n] = ev
		if n++; n == len(buf) {
			fn(buf)
			n = 0
		}
	}
	if n > 0 {
		fn(buf[:n])
	}
	return nil
}
