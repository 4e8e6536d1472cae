// Package host models the Compute Engine VM that drives a Cloud TPU: the
// tf.data-style input pipeline (read → decode/augment → linearize →
// transfer-to-infeed), the outfeed dequeue path, and the per-step session
// bookkeeping.
//
// The paper's central finding is that these host-side stages — not the
// matrix math — bound TPU workloads: TransferBufferToInfeedLocked and
// OutfeedDequeueTuple top every host profile, and TPUs sit idle ~39-44% of
// the time waiting on them. The pipeline here is therefore modeled with
// enough structure for those effects to *emerge*: each stage is a
// simclock.Resource with a thread-count capacity, batches queue through the
// stages, prefetch depth bounds how far the pipeline runs ahead, and epoch
// boundaries stall the reader while the shuffle buffer refills.
//
// Params carries the paper's "adjustable parameters" (buffer sizes, thread
// counts) — the exact knobs TPUPoint-Optimizer turns.
package host

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Spec describes the host VM hardware (the paper's instances: 16-core
// 2-way-SMT Skylake, 104 GB RAM, GCS-backed storage).
type Spec struct {
	Cores int

	// ReadMBps is streaming throughput from the storage bucket, per
	// reader thread, in MB/s.
	ReadMBps float64

	// DecodeMBpsPerThread is decode/augment throughput per worker thread
	// in MB/s of *raw* input.
	DecodeMBpsPerThread float64

	// PerRecordOverheadUs is fixed per-record CPU cost (dispatch, proto
	// parse) in µs, independent of record size.
	PerRecordOverheadUs float64

	// MemGBps is host memory bandwidth for linearize/pad stages, GB/s.
	MemGBps float64

	// PCIeGBps is host→TPU transfer bandwidth, GB/s. Must agree with the
	// device's InfeedGBps.
	PCIeGBps float64

	// TransferLockUs is the fixed cost of acquiring the infeed lock per
	// TransferBufferToInfeedLocked call.
	TransferLockUs float64

	// EpochRestartUs is the fixed cost of an epoch boundary: reopening
	// input files and restarting the dataset iterator, independent of the
	// shuffle-buffer refill that follows.
	EpochRestartUs float64
}

// ErrBadSpec rejects host hardware specs that cannot describe a real
// machine (non-positive core counts or bandwidths). Before validation these
// produced silently nonsensical simulations — zero-bandwidth links turn
// into divide-by-zero infinities that propagate into every stage time.
var ErrBadSpec = errors.New("host: invalid host spec")

// validate rejects hardware specs with non-positive core counts or
// bandwidths, and negative fixed overheads.
func (s Spec) validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("%w: Cores = %d, must be >= 1", ErrBadSpec, s.Cores)
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"ReadMBps", s.ReadMBps},
		{"DecodeMBpsPerThread", s.DecodeMBpsPerThread},
		{"MemGBps", s.MemGBps},
		{"PCIeGBps", s.PCIeGBps},
	}
	for _, r := range rates {
		if !(r.v > 0) { // rejects zero, negatives, and NaN
			return fmt.Errorf("%w: %s = %g, must be > 0", ErrBadSpec, r.name, r.v)
		}
	}
	overheads := []struct {
		name string
		v    float64
	}{
		{"PerRecordOverheadUs", s.PerRecordOverheadUs},
		{"TransferLockUs", s.TransferLockUs},
		{"EpochRestartUs", s.EpochRestartUs},
	}
	for _, o := range overheads {
		if o.v < 0 || o.v != o.v {
			return fmt.Errorf("%w: %s = %g, must be >= 0", ErrBadSpec, o.name, o.v)
		}
	}
	return nil
}

// DefaultSpec returns the paper's host instance.
func DefaultSpec() Spec {
	return Spec{
		Cores:               16,
		ReadMBps:            400,
		DecodeMBpsPerThread: 120,
		PerRecordOverheadUs: 15,
		MemGBps:             20,
		PCIeGBps:            10,
		TransferLockUs:      50,
		EpochRestartUs:      8000,
	}
}

// Params are the adjustable input-pipeline parameters — what a programmer
// sets on tf.data and what TPUPoint-Optimizer tunes at runtime.
type Params struct {
	ReaderThreads int // parallel dataset readers
	DecodeThreads int // num_parallel_calls on the decode/augment map
	PrefetchDepth int // prefetch buffer capacity, in batches
	InfeedThreads int // threads preparing/linearizing infeed buffers
	ShuffleBuffer int // shuffle buffer size, in records
}

// DefaultParams is a reasonably hand-tuned configuration, standing in for
// the Google-engineer-optimized reference models.
func DefaultParams() Params {
	return Params{
		ReaderThreads: 4,
		DecodeThreads: 8,
		PrefetchDepth: 4,
		InfeedThreads: 2,
		ShuffleBuffer: 8192,
	}
}

// NaiveParams is the "reasonably written but untuned" configuration the
// paper's naive implementations use (Section VII-C).
func NaiveParams() Params {
	return Params{
		ReaderThreads: 1,
		DecodeThreads: 1,
		PrefetchDepth: 1,
		InfeedThreads: 1,
		ShuffleBuffer: 1024,
	}
}

// Validate rejects parameter values that cannot run.
func (p Params) Validate() error {
	if p.ReaderThreads < 1 || p.DecodeThreads < 1 || p.InfeedThreads < 1 {
		return errors.New("host: thread counts must be >= 1")
	}
	if p.PrefetchDepth < 1 {
		return errors.New("host: prefetch depth must be >= 1")
	}
	if p.ShuffleBuffer < 1 {
		return errors.New("host: shuffle buffer must be >= 1")
	}
	return nil
}

// Clamp bounds p to the ranges a 16-core host supports. The optimizer
// calls this after every tuning move so exploration can't wedge the host.
func (p Params) Clamp(spec Spec) Params {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	threads := 2 * spec.Cores // SMT
	p.ReaderThreads = clamp(p.ReaderThreads, 1, threads)
	p.DecodeThreads = clamp(p.DecodeThreads, 1, threads)
	p.InfeedThreads = clamp(p.InfeedThreads, 1, 8)
	p.PrefetchDepth = clamp(p.PrefetchDepth, 1, 64)
	p.ShuffleBuffer = clamp(p.ShuffleBuffer, 1, 1<<20)
	return p
}

func (p Params) String() string {
	return fmt.Sprintf("readers=%d decode=%d prefetch=%d infeed=%d shuffle=%d",
		p.ReaderThreads, p.DecodeThreads, p.PrefetchDepth, p.InfeedThreads, p.ShuffleBuffer)
}

// InputSpec describes one workload's input stream as the pipeline sees it.
type InputSpec struct {
	Name string

	BatchSize int

	// RecordBytes is the average stored record size; DecodedBytes the
	// per-record size after decode/augment (what crosses PCIe).
	RecordBytes  int64
	DecodedBytes int64

	// Records is the dataset's record count; crossing it is an epoch
	// boundary and triggers a shuffle-buffer refill stall.
	Records int64

	// ImagePipeline selects the image op sequence (DecodeAndCropJpeg,
	// ResizeBicubic, Cast, Sub) over the NLP one (BuildPaddedOutput,
	// Cast, Minimum, Maximum).
	ImagePipeline bool

	// ExtraDecodeUsPerRecord is additional per-record CPU work in the
	// parallelizable part of the decode stage (tokenization, image
	// augmentation). Workload definitions calibrate it.
	ExtraDecodeUsPerRecord float64

	// SerialUsPerBatch is the non-parallelizable per-batch host work in
	// the decode stage (Python-side dispatch, batching, bookkeeping).
	// It does not shrink with DecodeThreads, which is what bounds how
	// much an auto-tuner can recover — the serial fraction of Amdahl's
	// law for the input pipeline.
	SerialUsPerBatch float64
}

// BatchRawBytes returns the stored bytes consumed per batch.
func (in InputSpec) BatchRawBytes() int64 {
	return int64(in.BatchSize) * in.RecordBytes
}

// BatchDecodedBytes returns the bytes transferred to the TPU per batch.
func (in InputSpec) BatchDecodedBytes() int64 {
	return int64(in.BatchSize) * in.DecodedBytes
}

// Host is the pipeline instance for one training run.
type Host struct {
	spec   Spec
	params Params
	input  InputSpec
	rng    *prng.Source

	readers    *simclock.Resource
	decoders   *simclock.Resource
	linearize  *simclock.Resource
	transfer   *simclock.Resource
	outfeedRes *simclock.Resource

	events    []trace.Event
	consumed  int64 // records read so far (for epoch boundaries)
	nextReady simclock.Time
}

// New builds a host with the given configuration. Spec and Params are
// validated.
func New(spec Spec, params Params, input InputSpec, seed uint64) (*Host, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if input.BatchSize < 1 || input.RecordBytes < 1 || input.DecodedBytes < 1 || input.Records < 1 {
		return nil, fmt.Errorf("host: invalid input spec %+v", input)
	}
	// Params.Validate guarantees positive thread counts, so resource
	// construction cannot fail here.
	return &Host{
		spec:       spec,
		params:     params,
		input:      input,
		rng:        prng.New(seed),
		readers:    simclock.MustResource("readers", params.ReaderThreads),
		decoders:   simclock.MustResource("decoders", 1),
		linearize:  simclock.MustResource("linearize", params.InfeedThreads),
		transfer:   simclock.MustResource("infeed-link", 1),
		outfeedRes: simclock.MustResource("outfeed-link", 1),
	}, nil
}

// Params returns the active pipeline parameters.
func (h *Host) Params() Params { return h.params }

// Input returns the input spec.
func (h *Host) Input() InputSpec { return h.input }

// SetParams swaps pipeline parameters mid-run (the optimizer's rewrite).
// Resource capacities are rebuilt; queued positions are not carried over,
// matching a pipeline restart at a checkpoint.
func (h *Host) SetParams(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	at := h.nextReady
	h.params = p
	h.readers = simclock.MustResource("readers", p.ReaderThreads)
	h.decoders = simclock.MustResource("decoders", 1)
	h.linearize = simclock.MustResource("linearize", p.InfeedThreads)
	h.transfer = simclock.MustResource("infeed-link", 1)
	h.outfeedRes = simclock.MustResource("outfeed-link", 1)
	h.readers.Reset(at)
	h.decoders.Reset(at)
	h.linearize.Reset(at)
	h.transfer.Reset(at)
	h.outfeedRes.Reset(at)
	return nil
}

// Instrument charges per-step instrumentation work (TPUPoint-Optimizer's
// checkpoint-before-each-call hooks) to the host: the op is recorded and
// the decode pool loses the equivalent CPU time from its critical path.
func (h *Host) Instrument(step int64, us float64) {
	dur := h.jitterDur(us)
	h.emit("TPUPointInstrumentation", h.decoders.NextFree(0), dur, step)
	h.decoders.AddDelay(dur)
}

// StallPipeline halts the whole pipeline for d (a checkpoint restore or a
// tuning rollback): every stage resumes no earlier than the current
// high-water mark plus d. A RestoreV2 op records the stall in the profile.
func (h *Host) StallPipeline(d simclock.Duration, step int64) {
	at := h.nextReady
	h.emit("RestoreV2", at, d, step)
	resume := at.Add(d)
	h.readers.Reset(resume)
	h.decoders.Reset(resume)
	h.linearize.Reset(resume)
	h.transfer.Reset(resume)
	h.outfeedRes.Reset(resume)
	h.nextReady = resume
}

// jitterDur applies ±5% service-time noise, with a 1µs floor.
func (h *Host) jitterDur(us float64) simclock.Duration {
	v := h.rng.Jitter(us, 0.05)
	if v < 1 {
		v = 1
	}
	return simclock.Duration(v + 0.5)
}

// Emit records an arbitrary host op (the estimator uses it for run-loop
// instrumentation ops that belong to the session rather than the pipeline).
func (h *Host) Emit(name string, at simclock.Time, dur simclock.Duration, step int64) {
	h.emit(name, at, dur, step)
}

// ReserveSteps makes room for the events of n more training steps: the
// seven pipeline ops of ProduceBatch, one more for instrumentation and
// loop-boundary ops, and the optional ops StepNoise adds at probability
// noiseP each. It is a size hint: a run that emits more grows the stream
// as append does.
func (h *Host) ReserveSteps(n int, noiseP float64) {
	perStep := 8 + float64(len(optionalOps))*noiseP
	h.events = slices.Grow(h.events, int(float64(n)*perStep)+64)
}

func (h *Host) emit(name string, at simclock.Time, dur simclock.Duration, step int64) {
	h.events = append(h.events, trace.Event{
		Name: name, Device: trace.Host, Start: at, Dur: dur, Step: step,
	})
}

// ProduceBatch runs one batch through the pipeline. gate is the earliest
// time the pipeline may start this batch (loop-boundary syncs and
// instrumentation); slotFree is when the TPU infeed queue has room for it
// (the prefetch back-pressure point computed by the caller). The return
// value is when the batch lands in the TPU's infeed queue.
//
// Back-pressure is charged to TransferBufferToInfeedLocked: the host
// thread posts the transfer as soon as the buffer is linearized and then
// blocks holding the infeed lock until a queue slot frees — which is why
// that op dominates real host profiles (Table II).
func (h *Host) ProduceBatch(step int64, gate, slotFree simclock.Time) simclock.Time {
	in := h.input

	// Epoch boundary: restart the dataset iterator, refill the shuffle
	// buffer from storage, and drain one cold batch through the pipeline
	// before steady state resumes. The stall becomes more frequent as
	// the dataset shrinks — the mechanism behind the paper's
	// Observation 6 dataset-size sensitivity.
	epochBefore := h.consumed / in.Records
	h.consumed += int64(in.BatchSize)
	if h.consumed/in.Records != epochBefore || (epochBefore == 0 && h.consumed == int64(in.BatchSize)) {
		// The stall hits every stage's critical path: the old iterator's
		// in-flight work is discarded and each stage restarts cold, so
		// the dead time lands at the tail of whatever backlog exists.
		dur := h.jitterDur(h.EpochStallUs())
		h.emit("Recv", h.decoders.NextFree(gate), dur, step)
		h.readers.AddDelay(dur)
		h.decoders.AddDelay(dur)
		h.linearize.AddDelay(dur)
	}

	// Stage 1: read raw records from the bucket.
	readUs := float64(in.BatchRawBytes()) / h.spec.ReadMBps
	readStart, readEnd := h.readers.Acquire(gate, h.jitterDur(readUs))
	h.emit("Send", readStart, readEnd.Sub(readStart), step)

	// Stage 2: decode/augment. The worker pool processes one batch at a
	// time: the parallelizable work divides across DecodeThreads, the
	// serial per-batch work does not.
	decodeUs := in.SerialUsPerBatch + h.parallelDecodeUs()
	decStart, decEnd := h.decoders.Acquire(readEnd, h.jitterDur(decodeUs))
	if in.ImagePipeline {
		h.emit("DecodeAndCropJpeg", decStart, (decEnd.Sub(decStart))*7/10, step)
		h.emit("ResizeBicubic", decStart.Add((decEnd.Sub(decStart))*7/10), (decEnd.Sub(decStart))*2/10, step)
		h.emit("Cast", decEnd.Add(-(decEnd.Sub(decStart))/10), (decEnd.Sub(decStart))/20, step)
		h.emit("Sub", decEnd.Add(-(decEnd.Sub(decStart))/20), (decEnd.Sub(decStart))/20, step)
	} else {
		h.emit("BuildPaddedOutput", decStart, (decEnd.Sub(decStart))*8/10, step)
		h.emit("Cast", decStart.Add((decEnd.Sub(decStart))*8/10), (decEnd.Sub(decStart))/10, step)
		h.emit("Minimum", decEnd.Add(-(decEnd.Sub(decStart))/10), (decEnd.Sub(decStart))/20, step)
		h.emit("Maximum", decEnd.Add(-(decEnd.Sub(decStart))/20), (decEnd.Sub(decStart))/20, step)
	}

	// Stage 3: linearize into the padded infeed layout.
	linUs := float64(in.BatchDecodedBytes()) / (h.spec.MemGBps * 1e3)
	linStart, linEnd := h.linearize.Acquire(decEnd, h.jitterDur(linUs))
	h.emit("LinearizeX32", linStart, linEnd.Sub(linStart), step)

	// Stage 4: the PCIe transfer, serialized on the infeed lock. The copy
	// cannot begin until the queue has a slot; the op's profiled duration
	// runs from the post (linEnd) through the wait and the copy.
	copyFrom := linEnd
	if slotFree > copyFrom {
		copyFrom = slotFree
	}
	xferUs := float64(in.BatchDecodedBytes())/(h.spec.PCIeGBps*1e3) + h.spec.TransferLockUs
	_, xferEnd := h.transfer.Acquire(copyFrom, h.jitterDur(xferUs))
	h.emit("TransferBufferToInfeedLocked", linEnd, xferEnd.Sub(linEnd), step)
	h.emit("InfeedEnqueueTuple", xferEnd, h.jitterDur(10), step)

	if xferEnd > h.nextReady {
		h.nextReady = xferEnd
	}
	return xferEnd
}

// DequeueOutfeed models the host thread blocked on the TPU's outfeed: it
// posts the dequeue at requestAt, the data is available at dataReady, and
// the op's profile duration covers the wait plus the PCIe copy — which is
// why OutfeedDequeueTuple dominates host profiles.
func (h *Host) DequeueOutfeed(step int64, requestAt, dataReady simclock.Time, bytes int64) simclock.Time {
	copyUs := float64(bytes) / (h.spec.PCIeGBps * 1e3)
	start, _ := h.outfeedRes.Acquire(requestAt, 0)
	end := dataReady.Add(h.jitterDur(copyUs + 20))
	if end < start {
		end = start
	}
	h.emit("OutfeedDequeueTuple", start, end.Sub(start), step)
	h.outfeedRes.Reset(end)
	return end
}

// StepBookkeeping emits the per-step session ops (RunGraph dispatch and the
// gRPC Send/Recv pair) that appear in host profiles.
func (h *Host) StepBookkeeping(step int64, at simclock.Time) {
	run := h.jitterDur(120)
	h.emit("RunGraph", at, run, step)
	h.emit("Send", at.Add(run), h.jitterDur(25), step)
	h.emit("Recv", at.Add(run).Add(30), h.jitterDur(25), step)
}

// optionalOps are low-frequency host bookkeeping ops that appear on a
// random subset of steps (allocator rebalances, control-flow plumbing,
// variable touch-ups). They are the small step-to-step set differences
// that make OLS split phases at high similarity thresholds (paper Fig 6).
var optionalOps = []string{
	"LSRAv2", "Identity", "Merge", "Switch", "Assert", "VarHandleOp",
	"ReadVariableOp", "NoOp", "StackPopV2", "Shape", "StridedSlice", "Fill",
	"Pack", "Unpack", "Range", "Where", "Select", "BroadcastTo",
	"ZerosLike", "OnesLike", "Rank", "Size", "EnsureShape", "CheckNumerics",
}

// StepNoise emits each optional op independently with probability p on
// this step.
func (h *Host) StepNoise(step int64, at simclock.Time, p float64) {
	t := at
	for _, name := range optionalOps {
		if h.rng.Float64() < p {
			d := h.jitterDur(30)
			h.emit(name, t, d, step)
			t = t.Add(d)
		}
	}
}

// EmitSummary records the periodic summary-writing ops TensorFlow runs
// every save_summary_steps.
func (h *Host) EmitSummary(step int64, at simclock.Time) simclock.Time {
	t := at
	for _, name := range []string{"ScalarSummary", "HistogramSummary", "MergeSummary"} {
		d := h.jitterDur(80)
		h.emit(name, t, d, step)
		t = t.Add(d)
	}
	return t
}

// EmitCheckpoint records a model checkpoint save: serialize weights and
// write them to the bucket. Returns when the save completes.
func (h *Host) EmitCheckpoint(step int64, at simclock.Time, weightBytes int64) simclock.Time {
	t := at
	d := h.jitterDur(float64(weightBytes) / (h.spec.MemGBps * 1e3))
	h.emit("ShardedFilename", t, h.jitterDur(20), step)
	h.emit("SaveV2", t, d+simclock.Duration(500), step)
	t = t.Add(d + 500)
	d2 := h.jitterDur(float64(weightBytes) / (h.spec.ReadMBps * 2))
	h.emit("MergeV2Checkpoints", t, d2, step)
	return t.Add(d2)
}

// EmitInit records the session-initialization ops (program start, TPU
// system init, checkpoint restore) and returns when they finish.
func (h *Host) EmitInit(at simclock.Time, restoreBytes int64) simclock.Time {
	t := at
	d := h.jitterDur(3000)
	h.emit("InitializeHostForDistributedTpu", t, d, -1)
	t = t.Add(d)
	d = h.jitterDur(1500)
	h.emit("StartProgram", t, d, -1)
	t = t.Add(d)
	if restoreBytes > 0 {
		restoreUs := float64(restoreBytes) / (h.spec.ReadMBps)
		d = h.jitterDur(restoreUs + 500)
		h.emit("RestoreV2", t, d, -1)
		t = t.Add(d)
	}
	return t
}

// EmitShutdown records the teardown op, attributed to the given step so
// the analyzer folds it into the final phase rather than stretching the
// init pseudo-step across the whole run.
func (h *Host) EmitShutdown(step int64, at simclock.Time) simclock.Time {
	d := h.jitterDur(2000)
	h.emit("DisconnectHostFromDistributedTPUSystem", at, d, step)
	return at.Add(d)
}

// Frontier returns the earliest Start of an op the host can emit at a
// time of its own choosing: Instrument starts at the decode pool's next
// free time and StallPipeline at the newest batch's ready time. Every
// other op starts at or after a time its caller passes.
func (h *Host) Frontier() simclock.Time {
	return min(h.decoders.NextFree(0), h.nextReady)
}

// Events returns the host event stream. Callers must not mutate.
func (h *Host) Events() []trace.Event { return h.events }

// SteadyStateBatchUs estimates the pipeline's steady-state per-batch
// latency bound (the slowest stage), in µs. The optimizer uses it to
// predict whether a parameter move can help before paying for a probe run.
func (h *Host) SteadyStateBatchUs() float64 {
	in := h.input
	read := float64(in.BatchRawBytes()) / h.spec.ReadMBps / float64(h.params.ReaderThreads)
	decode := in.SerialUsPerBatch + h.parallelDecodeUs()
	lin := float64(in.BatchDecodedBytes()) / (h.spec.MemGBps * 1e3) / float64(h.params.InfeedThreads)
	xfer := float64(in.BatchDecodedBytes())/(h.spec.PCIeGBps*1e3) + h.spec.TransferLockUs
	max := read
	for _, v := range []float64{decode, lin, xfer} {
		if v > max {
			max = v
		}
	}
	return max
}

// EpochStallUs returns the cost of one epoch boundary: the iterator
// restart, the shuffle-buffer refill from storage, and the refill of the
// drained prefetch buffer (PrefetchDepth batches at steady-state latency)
// before the TPU sees data again.
func (h *Host) EpochStallUs() float64 {
	in := h.input
	refillRecords := int64(h.params.ShuffleBuffer)
	if refillRecords > in.Records {
		refillRecords = in.Records
	}
	refillBytes := float64(refillRecords * in.RecordBytes)
	return h.spec.EpochRestartUs +
		refillBytes/(h.spec.ReadMBps*float64(h.params.ReaderThreads)) +
		float64(h.params.PrefetchDepth)*h.SteadyStateBatchUs()
}

// parallelDecodeUs returns the thread-divided portion of the decode stage
// for one batch under the current parameters.
func (h *Host) parallelDecodeUs() float64 {
	in := h.input
	work := float64(in.BatchRawBytes())/h.spec.DecodeMBpsPerThread +
		float64(in.BatchSize)*(h.spec.PerRecordOverheadUs+in.ExtraDecodeUsPerRecord)
	return work / float64(h.params.DecodeThreads)
}
