package trace

import (
	"fmt"

	"repro/internal/protowire"
	"repro/internal/simclock"
)

// Wire schema for raw event batches (what the TPU's profile service ships
// to the profiler before statistical reduction):
//
//	message Event {
//	  string name   = 1;
//	  uint64 device = 2;
//	  uint64 start  = 3;
//	  uint64 dur    = 4;
//	  sint64 step   = 5;
//	}
//
//	message EventBatch { repeated Event events = 1; }

// AppendEvents appends the batch's encoding of events to dst and returns
// the extended slice. A batch is one repeated field, so batches encoded
// one after another are the encoding of their events concatenated: a
// window can be encoded a chunk at a time.
func AppendEvents(dst []byte, events []Event) []byte {
	for i := range events {
		ev := &events[i]
		dst = appendEvent(dst, ev.Name, ev.Device, ev.Start, ev.Dur, ev.Step)
	}
	return dst
}

// appendEvent appends one event's entry of the batch to dst.
func appendEvent(dst []byte, name string, dev Device, start simclock.Time, dur simclock.Duration, step int64) []byte {
	n := protowire.SizeBytes(1, len(name)) +
		protowire.SizeUint64(2, uint64(dev)) +
		protowire.SizeUint64(3, uint64(start)) +
		protowire.SizeUint64(4, uint64(dur)) +
		protowire.SizeInt64(5, step)
	dst = protowire.AppendMessageTag(dst, 1, n)
	dst = protowire.AppendString(dst, 1, name)
	dst = protowire.AppendUint64(dst, 2, uint64(dev))
	dst = protowire.AppendUint64(dst, 3, uint64(start))
	dst = protowire.AppendUint64(dst, 4, uint64(dur))
	return protowire.AppendInt64(dst, 5, step)
}

// decodeEvent decodes one event. It takes each name from names, adding
// it the first time, so equal names share one string.
func decodeEvent(data []byte, names map[string]string) (Event, error) {
	var ev Event
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return ev, err
		}
		switch f {
		case 1:
			b, err := d.Raw()
			if err != nil {
				return ev, err
			}
			if v, ok := names[string(b)]; ok {
				ev.Name = v
			} else {
				ev.Name = string(b)
				names[ev.Name] = ev.Name
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			if v > uint64(TPU) {
				return ev, fmt.Errorf("trace: bad device %d", v)
			}
			ev.Device = Device(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Start = simclock.Time(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Dur = simclock.Duration(v)
		case 5:
			v, err := d.Int64()
			if err != nil {
				return ev, err
			}
			ev.Step = v
		default:
			if err := d.Skip(ty); err != nil {
				return ev, err
			}
		}
	}
	return ev, nil
}
