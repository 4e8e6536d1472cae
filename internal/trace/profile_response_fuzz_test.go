package trace_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core/profiler"
	"repro/internal/protowire"
	"repro/internal/simclock"
	"repro/internal/tpu"
	"repro/internal/trace"
)

// cannedCaller answers every call with the same reply.
type cannedCaller struct{ reply []byte }

func (c cannedCaller) Call(string, []byte) ([]byte, error) { return c.reply, nil }
func (c cannedCaller) CallTimeout(m string, b []byte, _ time.Duration) ([]byte, error) {
	return c.Call(m, b)
}
func (c cannedCaller) Close() error { return nil }

// profileReply encodes a profile reply holding the given event batches,
// each as an events field, around a window from windowStart.
func profileReply(windowStart simclock.Time, batches ...[]trace.Event) []byte {
	var reply []byte
	for _, events := range batches {
		reply = protowire.AppendBytes(reply, 1, trace.AppendEvents(nil, events))
	}
	reply = protowire.AppendUint64(reply, 2, uint64(windowStart))
	reply = protowire.AppendUint64(reply, 3, uint64(windowStart)+500)
	reply = protowire.AppendDouble(reply, 4, 0.25)
	reply = protowire.AppendDouble(reply, 5, 0.5)
	reply = protowire.AppendBool(reply, 7, true)
	return protowire.AppendInt64(reply, 8, 3)
}

// FuzzReadProfileResponse hands arbitrary bytes to the profiler's rpc
// client as a profile reply: the client returns an error or a window,
// never panics, and accepts what the oracle accepts — the reply's fields
// read by tpu.ReadProfileResponse, every events field decoded whole by
// UnmarshalEventsOracle. An accepted reply's record is ReduceOracle's
// reduction of the last events field's events, with the reply's
// truncation and OpenStep, compared by wire bytes (so NaN doubles compare
// bit for bit); a reply of no events has no record.
func FuzzReadProfileResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(profileReply(0))
	f.Add(profileReply(1000, []trace.Event{
		{Name: "fusion", Device: trace.TPU, Start: 1000, Dur: 5, Step: 1},
		{Name: "Send", Device: trace.Host, Start: 1002, Dur: 1, Step: 1},
		{Name: "fusion", Device: trace.TPU, Start: 1005, Dur: 3, Step: 2},
	}))
	f.Add(profileReply(7, []trace.Event{{Name: "a", Step: -1}}, []trace.Event{{Name: "b", Device: trace.TPU, Start: 9, Dur: 2}}))
	f.Add(append(profileReply(0, []trace.Event{{Name: "x"}}), 0x0a, 0x02, 0x08, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := (&profiler.RPCClient{Conn: cannedCaller{data}}).NextProfile(5)
		var events []trace.Event
		resp, wantErr := tpu.ReadProfileResponse(data, func(_ *tpu.ProfileResponse, batch []byte) (err error) {
			events, err = trace.UnmarshalEventsOracle(batch)
			return err
		})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, the oracle's %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.EndOfStream != resp.EndOfStream {
			t.Fatalf("end of stream %v, the reply's %v", got.EndOfStream, resp.EndOfStream)
		}
		if len(events) == 0 {
			if got.Record != nil {
				t.Fatalf("a reply of no events has a record of %d", got.Record.NumEvents)
			}
			return
		}
		want := trace.ReduceOracle(5, resp.WindowStart, events, resp.IdleFrac, resp.MXUUtil)
		want.Truncated = want.Truncated || resp.Truncated
		want.OpenStep = resp.OpenStep
		if got.Record == nil {
			t.Fatalf("a reply of %d events has no record", len(events))
		}
		if !bytes.Equal(trace.MarshalRecord(got.Record), trace.MarshalRecord(want)) {
			t.Fatalf("the client's record of %d events is not the oracle's:\n got %+v\nwant %+v", len(events), got.Record, want)
		}
	})
}
