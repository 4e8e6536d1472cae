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

// ProfileResponse is the decoded form of one profile service reply.
type ProfileResponse struct {
	Events      []trace.Event
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
	// EventsInWindow returns the events with Start in [from, to), in
	// Start order, in buf's storage when it has room for them. The
	// caller owns the result and reuses it as the next call's buf, so
	// the source must not keep it, and must not return memory it keeps.
	EventsInWindow(buf []trace.Event, from, to simclock.Time) []trace.Event
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
// A response's events are a buffer the service owns and reuses: they are
// valid until the next NextWindow call. The profiler reduces each window
// before it asks for the next, and the rpc handler marshals it before it
// returns.
type ProfileService struct {
	mu     sync.Mutex
	src    EventSource
	spec   ChipSpec
	cursor simclock.Time
	buf    []trace.Event // the last window's events, reused by the next

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

// NextWindow computes one profile window directly (used in-process by
// tests and by the in-memory fast path). The response's Events are valid
// until the next NextWindow call.
func (s *ProfileService) NextWindow() ProfileResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextWindowLocked()
}

func (s *ProfileService) nextWindowLocked() ProfileResponse {
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

	s.buf = s.src.EventsInWindow(s.buf, from, to)
	events := s.buf
	if limit := trace.MaxEventsPerProfile; len(events) > limit {
		// Clip before the run of equal Starts the limit falls in, so the
		// run ships whole next time — or, when that run opens the window,
		// after it.
		at := events[limit].Start
		n := sort.Search(len(events), func(i int) bool { return events[i].Start >= at })
		if n == 0 {
			n = sort.Search(len(events), func(i int) bool { return events[i].Start > at })
		}
		events = events[:n]
		to = events[n-1].Start + 1
		truncated = true
	}
	idle, mxu := s.src.WindowMetrics(from, to)
	resp.Events = events
	resp.WindowEnd = to
	resp.IdleFrac = idle
	resp.MXUUtil = mxu
	resp.Truncated = truncated
	resp.OpenStep = s.src.OpenStep(to)
	resp.EndOfStream = done && to >= wm
	s.cursor = to
	return resp
}

// handleProfile marshals the window while it holds the lock, before
// another call can reuse the window's events.
func (s *ProfileService) handleProfile(body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := s.nextWindowLocked()
	return marshalProfileResponse(&resp), nil
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

func marshalProfileResponse(r *ProfileResponse) []byte {
	e := protowire.NewEncoder(nil)
	e.Raw(1, trace.MarshalEvents(r.Events))
	e.Uint64(2, uint64(r.WindowStart))
	e.Uint64(3, uint64(r.WindowEnd))
	e.Double(4, r.IdleFrac)
	e.Double(5, r.MXUUtil)
	e.Bool(6, r.EndOfStream)
	e.Bool(7, r.Truncated)
	if r.OpenStep != 0 {
		e.Int64(8, r.OpenStep)
	}
	return e.Bytes()
}

// UnmarshalProfileResponse decodes a profile reply; the profiler's client
// stub uses it.
func UnmarshalProfileResponse(data []byte) (*ProfileResponse, error) {
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
			events, err := trace.UnmarshalEvents(raw)
			if err != nil {
				return nil, err
			}
			r.Events = events
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
