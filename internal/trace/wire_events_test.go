package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/protowire"
	"repro/internal/simclock"
)

// decodeAll decodes an event batch through DecodeEvents, 1024 events at a
// time as the profiler's rpc client does, and returns its events.
func decodeAll(data []byte) ([]Event, error) {
	var out []Event
	err := DecodeEvents(data, make([]Event, 1024), make(map[string]string), func(chunk []Event) {
		out = append(out, chunk...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// unmarshalEventsOracle is the whole-batch decoder DecodeEvents replaced:
// every event appended to one slice, each name a copy of its own.
func unmarshalEventsOracle(data []byte) ([]Event, error) {
	d := protowire.NewDecoder(data)
	var out []Event
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		if f != 1 {
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
			continue
		}
		raw, err := d.Raw()
		if err != nil {
			return nil, err
		}
		ev, err := decodeEventOracle(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func decodeEventOracle(data []byte) (Event, error) {
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
			ev.Name = string(b)
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

func TestEventsRoundTrip(t *testing.T) {
	events := []Event{
		{Name: "fusion", Device: TPU, Start: 100, Dur: 50, Step: 7},
		{Name: "OutfeedDequeueTuple", Device: Host, Start: 150, Dur: 2000, Step: 7},
		{Name: "init", Device: Host, Start: 0, Dur: 1, Step: -1},
	}
	got, err := decodeAll(AppendEvents(nil, events))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got[i], events[i])
		}
	}
}

func TestEventsEmptyBatch(t *testing.T) {
	got, err := decodeAll(AppendEvents(nil, nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestEventsRejectGarbage(t *testing.T) {
	if _, err := decodeAll([]byte{0x00}); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncate a valid batch mid-payload.
	data := AppendEvents(nil, []Event{{Name: "abcdefgh", Device: TPU, Start: 1, Dur: 2, Step: 3}})
	if _, err := decodeAll(data[:len(data)-2]); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func TestEventsRejectBadDevice(t *testing.T) {
	// Hand-encode an event with device=9.
	inner := protowire.NewEncoder(nil)
	inner.String(1, "x")
	inner.Uint64(2, 9)
	outer := protowire.NewEncoder(nil)
	outer.Raw(1, inner.Bytes())
	if _, err := decodeAll(outer.Bytes()); err == nil {
		t.Fatal("device 9 accepted")
	}
}

func TestEventsSkipUnknownFields(t *testing.T) {
	// Future schema additions must be skippable: unknown field 9 in the
	// event and unknown field 5 in the batch.
	inner := protowire.NewEncoder(nil)
	inner.String(1, "op")
	inner.Uint64(2, 1)
	inner.Uint64(9, 42) // unknown
	outer := protowire.NewEncoder(nil)
	outer.Raw(1, inner.Bytes())
	outer.Uint64(5, 7) // unknown
	got, err := decodeAll(outer.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "op" || got[0].Device != TPU {
		t.Fatalf("got %+v", got)
	}
}

func TestPropertyEventsRoundTrip(t *testing.T) {
	f := func(name string, dev bool, start, dur uint32, step int16) bool {
		ev := Event{
			Name:  name,
			Start: simclock.Time(start),
			Dur:   simclock.Duration(dur),
			Step:  int64(step),
		}
		if dev {
			ev.Device = TPU
		}
		got, err := decodeAll(AppendEvents(nil, []Event{ev}))
		return err == nil && len(got) == 1 && got[0] == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// marshalEventsOracle is the batch encoder as it was before AppendEvents:
// each event staged in an encoder of its own, then copied in as field 1.
func marshalEventsOracle(events []Event) []byte {
	e := protowire.NewEncoder(nil)
	inner := protowire.NewEncoder(nil)
	for _, ev := range events {
		inner.Reset()
		inner.String(1, ev.Name)
		inner.Uint64(2, uint64(ev.Device))
		inner.Uint64(3, uint64(ev.Start))
		inner.Uint64(4, uint64(ev.Dur))
		inner.Int64(5, ev.Step)
		e.Raw(1, inner.Bytes())
	}
	return e.Bytes()
}

// TestAppendEventsMatchesOracle: AppendEvents writes the bytes the staged
// encoder wrote — names of every length class (a 128-byte one takes a
// two-byte length), extreme values, negative steps — and a batch appended
// a chunk at a time is the batch of the whole.
func TestAppendEventsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "fusion", strings.Repeat("n", 127), strings.Repeat("n", 128), strings.Repeat("x", 20000)}
	events := []Event{
		{Name: "max", Device: TPU, Start: math.MaxInt64, Dur: math.MaxInt64, Step: math.MaxInt64},
		{Name: "min", Device: Device(255), Start: math.MinInt64, Dur: -1, Step: math.MinInt64},
	}
	for i := 0; i < 500; i++ {
		events = append(events, Event{Name: names[rng.Intn(len(names))], Device: Device(rng.Intn(2)),
			Start: simclock.Time(rng.Int63() >> rng.Intn(63)), Dur: simclock.Duration(rng.Int63() >> rng.Intn(63)),
			Step: rng.Int63()>>rng.Intn(63) - rng.Int63()>>rng.Intn(63)})
	}
	want := marshalEventsOracle(events)
	if got := AppendEvents(nil, events); !bytes.Equal(got, want) {
		t.Fatal("AppendEvents differs from the staged encoder")
	}
	if AppendEvents(nil, nil) != nil {
		t.Fatal("an empty batch is not nil")
	}
	for _, chunk := range []int{1, 2, 7, 64} {
		got := []byte("prefix")
		for rest := events; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
			got = AppendEvents(got, rest[:min(chunk, len(rest))])
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("chunks of %d: the appended batch differs from the whole one", chunk)
		}
	}
}

func TestEventStringFormat(t *testing.T) {
	k := OpKey{Name: "fusion", Device: TPU}
	if k.String() != "tpu:fusion" {
		t.Fatalf("OpKey.String() = %q", k.String())
	}
}

func BenchmarkMarshalEvents(b *testing.B) {
	events := make([]Event, 200)
	for i := range events {
		events[i] = Event{Name: "fusion", Device: TPU,
			Start: simclock.Time(i * 100), Dur: 90, Step: int64(i / 10)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AppendEvents(nil, events)
	}
}

// BenchmarkUnmarshalEvents decodes a 200-event batch as the profiler's rpc
// client does: a chunk buffer and interned names kept from batch to batch.
func BenchmarkUnmarshalEvents(b *testing.B) {
	events := make([]Event, 200)
	for i := range events {
		events[i] = Event{Name: "fusion", Device: TPU,
			Start: simclock.Time(i * 100), Dur: 90, Step: int64(i / 10)}
	}
	data := AppendEvents(nil, events)
	buf := make([]Event, 1024)
	names := make(map[string]string)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeEvents(data, buf, names, func([]Event) {}); err != nil {
			b.Fatal(err)
		}
	}
}
