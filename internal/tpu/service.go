package tpu

import (
	"sort"
	"sync"

	"repro/internal/protowire"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// RPC method names exposed by the device's profile service.
const (
	MethodProfile = "tpu.Profile"
	MethodStatus  = "tpu.Status"
)

// ProfileResponse is one profile service reply but for its events, which
// the service hands to a window's consumer as segments and the wire
// carries as an encoded batch.
type ProfileResponse struct {
	WindowStart simclock.Time
	WindowEnd   simclock.Time
	IdleFrac    float64
	MXUUtil     float64
	EndOfStream bool // training finished and all events delivered
	Truncated   bool // window clipped at the event or duration limit

	// OpenStep is the source's OpenStep at WindowEnd: no later response
	// holds an event of a step below it. Only a positive value says
	// anything; an empty window carries zero.
	OpenStep int64
}

// StatusResponse describes the device for status queries.
type StatusResponse struct {
	Version    string
	MXUs       int64
	HBMBytes   int64
	PeakTFLOPS float64
}

// EventSource is what the profile service profiles: a window-addressable
// event stream with per-window device metadata. The estimator's Runner
// implements it with host and TPU events merged, which is what real
// profile responses contain.
type EventSource interface {
	// CountEvents returns how many events start in [from, to).
	CountEvents(from, to simclock.Time) int
	// Segments hands fn the events with Start in [from, to), in Start
	// order, device first on equal Starts, as segments: views of events
	// held whole, or stretches of device runs, none empty, until fn
	// returns false. A segment is only valid during its call. The source
	// may emit while the call runs, so the window must be final: to is no
	// later than the source's watermark, as every window the service cuts
	// is.
	Segments(from, to simclock.Time, fn func(trace.Segment) bool)
	WindowMetrics(from, to simclock.Time) (idleFrac, mxuUtil float64)
	// OpenStep returns the lowest step that can still gain an event
	// with Start >= t: one already emitted at or after t, or one not
	// emitted yet. It is math.MaxInt64 when no step can.
	OpenStep(t simclock.Time) int64
}

// ProfileService exposes an EventSource over the rpc package, mimicking
// the gRPC profile endpoint that CLOUD-TPU-PROFILER and TPUPoint both hit.
// Each Profile call returns the next window of the event stream (at most
// trace.MaxProfileWindow of simulated time or trace.MaxEventsPerProfile
// events), with the device's idle/MXU metadata for that window.
//
// Windows tile the stream exactly: a window ends no later than the
// source's watermark, the earliest Start an event not emitted yet can
// have, so every event falls in exactly one window however the calls
// interleave with training.
//
// A window is cut before any of its events is read — its end, event
// limit included, is found from counts — and the source then hands its
// events to the window's consumer as segments: the in-process profiler
// reduces them (ReadSegments), the rpc handler encodes them, and neither
// builds a device event. No path builds a window's events whole: a
// window can hold up to MaxEventsPerProfile of them.
type ProfileService struct {
	mu     sync.Mutex
	src    EventSource
	spec   ChipSpec
	cursor simclock.Time
	batch  []byte // the rpc handler's encoded events, reused

	// watermarkFn reports the source's watermark; doneFn whether the
	// source will emit nothing more.
	watermarkFn func() simclock.Time
	doneFn      func() bool
}

// NewProfileService wraps src. watermarkFn and doneFn connect the service
// to the training loop's progress; spec answers status queries.
func NewProfileService(src EventSource, spec ChipSpec, watermarkFn func() simclock.Time, doneFn func() bool) *ProfileService {
	return &ProfileService{src: src, spec: spec, watermarkFn: watermarkFn, doneFn: doneFn}
}

// Register installs the service's methods on an RPC server.
func (s *ProfileService) Register(srv *rpc.Server) {
	srv.Register(MethodProfile, s.handleProfile)
	srv.Register(MethodStatus, s.handleStatus)
}

// ReadSegments cuts the next profile window and hands its events to fn
// as the source's segments, each with the window's response; it returns
// that response. A segment is valid only during its call. fn is not
// called for an empty window, and must not call the service.
func (s *ProfileService) ReadSegments(fn func(resp *ProfileResponse, seg trace.Segment)) ProfileResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readWindowLocked(fn)
}

// readWindowLocked is the service's one window-cutting path: it hands
// the window's segments to fn.
func (s *ProfileService) readWindowLocked(fn func(*ProfileResponse, trace.Segment)) ProfileResponse {
	// done before the watermark: a source that finishes between the two
	// reads must not end the stream at a watermark older than its last
	// events.
	done := s.doneFn()
	wm := s.watermarkFn()
	from := s.cursor
	to := from.Add(trace.MaxProfileWindow)
	truncated := false
	if to > wm {
		to = wm
	} else if to < wm {
		truncated = true // more activity exists past the window limit
	}

	var resp ProfileResponse
	resp.WindowStart = from
	if to <= from {
		resp.WindowEnd = from
		resp.EndOfStream = done
		return resp
	}
	if s.src.CountEvents(from, to) > trace.MaxEventsPerProfile {
		to = s.clip(from, to)
		truncated = true
	}
	idle, mxu := s.src.WindowMetrics(from, to)
	resp.WindowEnd = to
	resp.IdleFrac = idle
	resp.MXUUtil = mxu
	resp.Truncated = truncated
	resp.OpenStep = s.src.OpenStep(to)
	resp.EndOfStream = done && to >= wm
	s.cursor = to
	s.src.Segments(from, to, func(seg trace.Segment) bool {
		fn(&resp, seg)
		return true
	})
	return resp
}

// clip returns where a window from `from` ends when [from, to) holds more
// than MaxEventsPerProfile events: before the run of equal Starts the
// limit falls in, so the run ships whole next time — or, when that run
// opens the window, after it. It reads counts only, so the cut is made
// before any event is handed out.
func (s *ProfileService) clip(from, to simclock.Time) simclock.Time {
	// startOf returns the Start of the window's k-th event, from 0.
	startOf := func(k int) simclock.Time {
		return from + simclock.Time(sort.Search(int(to-from), func(i int) bool {
			return s.src.CountEvents(from, from+simclock.Time(i)+1) > k
		}))
	}
	at := startOf(trace.MaxEventsPerProfile)
	if n := s.src.CountEvents(from, at); n > 0 {
		return startOf(n-1) + 1
	}
	return at + 1
}

// handleProfile encodes the window's events a segment at a time, under
// the service's lock, into a buffer it reuses, and the response around
// them.
func (s *ProfileService) handleProfile(body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch = s.batch[:0]
	resp := s.readWindowLocked(func(_ *ProfileResponse, seg trace.Segment) {
		s.batch = trace.AppendSegment(s.batch, &seg)
	})
	return encodeProfileResponse(&resp, s.batch), nil
}

func (s *ProfileService) handleStatus(body []byte) ([]byte, error) {
	e := protowire.NewEncoder(nil)
	e.String(1, s.spec.Name)
	e.Uint64(2, uint64(s.spec.MXUs))
	e.Uint64(3, uint64(s.spec.HBMBytes))
	e.Double(4, s.spec.PeakTFLOPS)
	return e.Bytes(), nil
}

// Wire schema for ProfileResponse:
//
//	message ProfileResponse {
//	  bytes  events       = 1; // EventBatch
//	  uint64 window_start = 2;
//	  uint64 window_end   = 3;
//	  double idle_frac    = 4;
//	  double mxu_util     = 5;
//	  bool   end_of_stream= 6;
//	  bool   truncated    = 7;
//	  sint64 open_step    = 8;
//	}

// encodeProfileResponse encodes r with events, the window's events
// encoded, as its events field, into one allocation.
func encodeProfileResponse(r *ProfileResponse, events []byte) []byte {
	dst := make([]byte, 0, protowire.SizeBytes(1, len(events))+64)
	dst = protowire.AppendBytes(dst, 1, events)
	dst = protowire.AppendUint64(dst, 2, uint64(r.WindowStart))
	dst = protowire.AppendUint64(dst, 3, uint64(r.WindowEnd))
	dst = protowire.AppendDouble(dst, 4, r.IdleFrac)
	dst = protowire.AppendDouble(dst, 5, r.MXUUtil)
	dst = protowire.AppendBool(dst, 6, r.EndOfStream)
	dst = protowire.AppendBool(dst, 7, r.Truncated)
	if r.OpenStep != 0 {
		dst = protowire.AppendInt64(dst, 8, r.OpenStep)
	}
	return dst
}

// ReadProfileResponse decodes a profile reply but for its events, whose
// encoded batch it hands to events instead, as it comes to it: the
// profiler's client stub decodes the batch a chunk at a time once it has
// the window's start. events sees every events field the reply holds, in
// order (a decoder keeps the last), with the response as decoded so far.
func ReadProfileResponse(data []byte, events func(r *ProfileResponse, batch []byte) error) (*ProfileResponse, error) {
	r := &ProfileResponse{}
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			raw, err := d.Raw()
			if err != nil {
				return nil, err
			}
			if err := events(r, raw); err != nil {
				return nil, err
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.WindowStart = simclock.Time(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.WindowEnd = simclock.Time(v)
		case 4:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			r.IdleFrac = v
		case 5:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			r.MXUUtil = v
		case 6:
			v, err := d.Bool()
			if err != nil {
				return nil, err
			}
			r.EndOfStream = v
		case 7:
			v, err := d.Bool()
			if err != nil {
				return nil, err
			}
			r.Truncated = v
		case 8:
			v, err := d.Int64()
			if err != nil {
				return nil, err
			}
			r.OpenStep = v
		default:
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// UnmarshalStatusResponse decodes a status reply.
func UnmarshalStatusResponse(data []byte) (*StatusResponse, error) {
	r := &StatusResponse{}
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			v, err := d.String()
			if err != nil {
				return nil, err
			}
			r.Version = v
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.MXUs = int64(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.HBMBytes = int64(v)
		case 4:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			r.PeakTFLOPS = v
		default:
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
