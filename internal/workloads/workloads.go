// Package workloads defines the nine model/dataset pairs of the paper's
// Table I as runnable simulation specs: a step graph for training and one
// for evaluation, the input-pipeline description, the default training
// parameters, and the run schedule (eval cadence, checkpoints, summaries).
//
// Scaling substitution: the paper trains to completion (e.g. 112,590 steps
// for ResNet); the simulation compresses each run to TrainSteps steps and
// scales the dataset's record count by the same factor, so the *epoch
// structure* — how often the input pipeline hits an epoch boundary — is
// preserved. PaperSteps records the original count.
//
// Calibration substitution: per-workload host preprocessing costs
// (SerialUsPerBatch, ExtraDecodeUsPerRecord) are solved at construction so
// that the tuned pipeline's steady-state batch latency over the TPUv2
// step-compute time reproduces the per-workload TPUv2 idle fractions of
// the paper's Figure 10. Everything else — TPUv3 behaviour, dataset-size
// effects, naive-parameter behaviour, optimizer gains — is emergent: those
// runs reuse the same calibrated costs with only the generation, dataset,
// or pipeline parameters changed.
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/tpu"
	"repro/internal/xla"
)

// Workload is a fully specified, runnable model/dataset pair.
type Workload struct {
	Name    string // registry key, e.g. "bert-mrpc"
	Model   string // e.g. "BERT"
	Task    string // Table I "Workload Type"
	Dataset datasets.Dataset

	BatchSize  int
	TrainSteps int   // simulated steps
	PaperSteps int64 // steps the paper's full training runs

	EvalEvery         int // run an eval block every N train steps
	EvalSteps         int // steps per eval block
	CheckpointEvery   int
	SummaryEvery      int
	IterationsPerLoop int

	// NoiseP is the per-step probability of each optional host
	// bookkeeping op (see host.StepNoise).
	NoiseP float64

	// TargetIdleV2 is the calibration target for the tuned pipeline on
	// TPUv2 (Figure 10's per-workload idle fractions).
	TargetIdleV2 float64

	// ParamsDesc reproduces Table I's "Default Training Parameters".
	ParamsDesc []string

	// TrainGraph and EvalGraph are the step graphs. Get and Small
	// compile them where they set them (Programs); a graph must not be
	// modified in place afterwards.
	TrainGraph *graph.Graph
	EvalGraph  *graph.Graph
	Input      host.InputSpec
	HostParams host.Params
	HostSpec   host.Spec // host VM driving the run (DefaultSpec unless overridden)
	Seed       uint64

	// trainProg and evalProg are the step graphs as the device runs
	// them, compiled where the graphs are set; copies share them.
	trainProg, evalProg *xla.Program
}

// Spec returns the workload's host spec, falling back to the default when
// the field was left zero (hand-constructed Workload values). Everything
// that reasons about the host — calibration, the estimator, the
// optimizer's clamping — must go through this so they can never disagree.
func (w *Workload) Spec() host.Spec {
	if w.HostSpec == (host.Spec{}) {
		return host.DefaultSpec()
	}
	return w.HostSpec
}

// spec is the static registry entry; Get instantiates graphs from it.
type spec struct {
	model, task  string
	dataset      string
	batch        int
	trainSteps   int
	paperSteps   int64
	targetIdle   float64
	noiseP       float64
	paramsDesc   []string
	buildTrain   func() *graph.Graph
	buildEval    func() *graph.Graph
	decodedBytes int64 // override dataset default when models resize inputs
}

var registry = map[string]spec{
	"bert-squad": {
		model: "BERT", task: "Natural Language", dataset: "squad",
		batch: 32, trainSteps: 600, paperSteps: 8211, // 3 epochs
		targetIdle: 0.34, noiseP: 0.30,
		paramsDesc: []string{"max seq length: 128", "train batch size: 32", "learning rate: 2e-5", "num train epochs: 3"},
		buildTrain: func() *graph.Graph { return buildBERT(true) },
		buildEval:  func() *graph.Graph { return buildBERT(false) },
	},
	"bert-mrpc": {
		model: "BERT", task: "Natural Language", dataset: "mrpc",
		batch: 32, trainSteps: 350, paperSteps: 343,
		targetIdle: 0.42, noiseP: 0.30,
		paramsDesc: []string{"max seq length: 128", "train batch size: 32", "learning rate: 2e-5", "num train epochs: 3"},
		buildTrain: func() *graph.Graph { return buildBERT(true) },
		buildEval:  func() *graph.Graph { return buildBERT(false) },
	},
	"bert-mnli": {
		model: "BERT", task: "Natural Language", dataset: "mnli",
		batch: 32, trainSteps: 600, paperSteps: 36815,
		targetIdle: 0.36, noiseP: 0.30,
		paramsDesc: []string{"max seq length: 128", "train batch size: 32", "learning rate: 2e-5", "num train epochs: 3"},
		buildTrain: func() *graph.Graph { return buildBERT(true) },
		buildEval:  func() *graph.Graph { return buildBERT(false) },
	},
	"bert-cola": {
		model: "BERT", task: "Natural Language", dataset: "cola",
		batch: 32, trainSteps: 600, paperSteps: 801,
		targetIdle: 0.44, noiseP: 0.30,
		paramsDesc: []string{"max seq length: 128", "train batch size: 32", "learning rate: 2e-5", "num train epochs: 3"},
		buildTrain: func() *graph.Graph { return buildBERT(true) },
		buildEval:  func() *graph.Graph { return buildBERT(false) },
	},
	"dcgan-cifar10": {
		model: "DCGAN", task: "Image Generation", dataset: "cifar10",
		batch: 1024, trainSteps: 600, paperSteps: 10000,
		targetIdle: 0.52, noiseP: 0.18,
		paramsDesc: []string{"batch size: 1024", "num shards: 8", "train steps: 10000", "train steps per eval: 1000", "iterations per loop: 100", "learning rate: 0.0002"},
		buildTrain: func() *graph.Graph { return buildDCGAN(true, 32, 3) },
		buildEval:  func() *graph.Graph { return buildDCGAN(false, 32, 3) },
	},
	"dcgan-mnist": {
		model: "DCGAN", task: "Image Generation", dataset: "mnist",
		batch: 1024, trainSteps: 600, paperSteps: 10000,
		targetIdle: 0.56, noiseP: 0.18,
		paramsDesc: []string{"batch size: 1024", "num shards: 8", "train steps: 10000", "train steps per eval: 1000", "iterations per loop: 100", "learning rate: 0.0002"},
		buildTrain: func() *graph.Graph { return buildDCGAN(true, 32, 1) },
		buildEval:  func() *graph.Graph { return buildDCGAN(false, 32, 1) },
		// MNIST 28×28 padded to 32×32 for the conv stack.
		decodedBytes: 32 * 32 * 1 * 4,
	},
	"qanet-squad": {
		model: "QANet", task: "Q/A Natural Language", dataset: "squad",
		batch: 32, trainSteps: 700, paperSteps: 100000,
		targetIdle: 0.40, noiseP: 0.30,
		paramsDesc: []string{"train batch size: 32", "steps per epoch: 20000", "num epochs: 5"},
		buildTrain: func() *graph.Graph { return buildQANet(true) },
		buildEval:  func() *graph.Graph { return buildQANet(false) },
		// QANet uses context length 400 (ids + char features).
		decodedBytes: 400*4*2 + 400*16,
	},
	"retinanet-coco": {
		model: "RetinaNet", task: "Object Detection", dataset: "coco",
		batch: 64, trainSteps: 900, paperSteps: 28125, // 15 epochs × 120k/64
		targetIdle: 0.27, noiseP: 0.30,
		paramsDesc: []string{"train batch size: 64", "image size: 640", "num epochs: 15", "num examples per epoch: 120k"},
		buildTrain: func() *graph.Graph { return buildRetinaNet(true) },
		buildEval:  func() *graph.Graph { return buildRetinaNet(false) },
	},
	"resnet-imagenet": {
		model: "ResNet-50", task: "Image Classification", dataset: "imagenet",
		batch: 1024, trainSteps: 1600, paperSteps: 112590,
		targetIdle: 0.19, noiseP: 0.30,
		paramsDesc: []string{"Default Network Depth: 50", "Train Steps: 112590", "Default Batch Size: 1024"},
		buildTrain: func() *graph.Graph { return buildResNet(true, 224, 1024) },
		buildEval:  func() *graph.Graph { return buildResNet(false, 224, 1024) },
	},
}

// Names returns the registry keys in the paper's Table I order.
func Names() []string {
	return []string{
		"bert-squad", "bert-mrpc", "bert-mnli", "bert-cola",
		"dcgan-cifar10", "dcgan-mnist",
		"qanet-squad", "retinanet-coco", "resnet-imagenet",
	}
}

// built builds each registry entry once per process, on its first Get.
var built = func() map[string]func() (*Workload, error) {
	m := make(map[string]func() (*Workload, error), len(registry))
	for name, s := range registry {
		m[name] = sync.OnceValues(func() (*Workload, error) { return build(name, s) })
	}
	return m
}()

// Get returns a fresh copy of the named Workload. The entry is built and
// compiled once per process, and every copy shares its graphs, programs
// and ParamsDesc (as Naive's copies do): they must not be modified.
func Get(name string) (*Workload, error) {
	b, ok := built[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	w, err := b()
	if err != nil {
		return nil, err
	}
	c := *w
	return &c, nil
}

// build instantiates, compiles and calibrates a registry entry.
func build(name string, s spec) (*Workload, error) {
	ds := datasets.MustGet(s.dataset)
	w := &Workload{
		Name:              name,
		Model:             s.model,
		Task:              s.task,
		Dataset:           ds,
		BatchSize:         s.batch,
		TrainSteps:        s.trainSteps,
		PaperSteps:        s.paperSteps,
		EvalEvery:         0, // evaluate once after training
		EvalSteps:         40,
		CheckpointEvery:   100,
		SummaryEvery:      50,
		IterationsPerLoop: 100,
		NoiseP:            s.noiseP,
		TargetIdleV2:      s.targetIdle,
		ParamsDesc:        s.paramsDesc,
		TrainGraph:        s.buildTrain(),
		EvalGraph:         s.buildEval(),
		HostParams:        host.DefaultParams(),
		HostSpec:          host.DefaultSpec(),
		Seed:              fnv(name),
	}
	decoded := ds.DecodedBytes
	if s.decodedBytes > 0 {
		decoded = s.decodedBytes
	}
	w.Input = host.InputSpec{
		Name:          ds.Name,
		BatchSize:     s.batch,
		RecordBytes:   ds.RecordBytes(),
		DecodedBytes:  decoded,
		Records:       effectiveRecords(ds.Records, s.paperSteps, s.trainSteps, s.batch),
		ImagePipeline: ds.Kind == datasets.Image,
	}
	if err := w.compile(); err != nil {
		return nil, fmt.Errorf("workloads: compiling %s: %w", name, err)
	}
	if err := w.calibrate(); err != nil {
		return nil, fmt.Errorf("workloads: calibrating %s: %w", name, err)
	}
	return w, nil
}

// MustGet is Get for static names.
func MustGet(name string) *Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// effectiveRecords compresses the dataset by the same factor as the step
// count, preserving epochs-per-run; it never drops below sixteen batches
// (an epoch shorter than that would make the boundary stall, a per-epoch
// cost, dominate the compressed run in a way the full run never sees).
func effectiveRecords(records, paperSteps int64, trainSteps, batch int) int64 {
	scale := float64(paperSteps) / float64(trainSteps)
	if scale < 1 {
		scale = 1
	}
	eff := int64(float64(records) / scale)
	if min := int64(16 * batch); eff < min {
		eff = min
	}
	return eff
}

// compile applies the TensorFlow master's graph optimizations to both
// step graphs (constant folding; partitioning is a no-op for these
// single-device graphs), lowers the results through XLA and holds the
// programs. Get and Small call it wherever they set the graphs.
func (w *Workload) compile() error {
	train, err := compileFolded(w.TrainGraph)
	if err != nil {
		return fmt.Errorf("train graph: %w", err)
	}
	eval, err := compileFolded(w.EvalGraph)
	if err != nil {
		return fmt.Errorf("eval graph: %w", err)
	}
	w.trainProg, w.evalProg = train, eval
	return nil
}

// Programs returns the compiled train and eval step programs. A program
// depends on its graph alone, not on the TPU generation or the host, so
// Get and Small compile each graph once and calibration and every
// estimator run share the result; it is read-only (see xla.Program). A
// Workload not built by Get has none, and Programs fails.
func (w *Workload) Programs() (train, eval *xla.Program, err error) {
	if w.trainProg == nil || w.evalProg == nil {
		return nil, nil, fmt.Errorf("workloads: %s has no compiled programs (build it with Get)", w.Name)
	}
	return w.trainProg, w.evalProg, nil
}

func compileFolded(g *graph.Graph) (*xla.Program, error) {
	folded, _, err := graph.FoldConstants(g)
	if err != nil {
		return nil, err
	}
	return xla.Compile(folded)
}

// calibrate solves the host preprocessing costs from the TPUv2 idle target.
// Serial work takes ~87% of the target batch latency (the Amdahl serial
// fraction that bounds auto-tuning gains at ~15%); the remainder is
// parallelizable decode work sized for the default thread count.
func (w *Workload) calibrate() error {
	prog, _, err := w.Programs()
	if err != nil {
		return err
	}
	dev := tpu.NewDevice(tpu.NewChipSpec(tpu.V2), 0)
	if err := dev.LoadProgram(prog); err != nil {
		return err
	}
	c := float64(dev.StepBusyTime()) // µs
	if c <= 0 {
		return fmt.Errorf("program has no compute")
	}
	f := w.TargetIdleV2
	hTarget := c / (1 - f)

	threads := float64(w.HostParams.DecodeThreads)
	spec := w.Spec()

	// Correct for the per-epoch boundary stall, which adds to the mean
	// step period on top of the steady state. With spe steps per epoch,
	// prefetch depth P, and fixed restart cost F (iterator restart plus
	// shuffle refill), the mean period is H·(1 + P/spe) + F/spe; solve
	// for the H that makes the mean hit the target.
	spe := float64(w.Input.Records) / float64(w.BatchSize)
	if spe >= 1 {
		p := float64(w.HostParams.PrefetchDepth)
		refillRecords := int64(w.HostParams.ShuffleBuffer)
		if refillRecords > w.Input.Records {
			refillRecords = w.Input.Records
		}
		fixed := spec.EpochRestartUs +
			float64(refillRecords*w.Input.RecordBytes)/(spec.ReadMBps*float64(w.HostParams.ReaderThreads))
		corrected := (hTarget - fixed/spe) / (1 + p/spe)
		if corrected < c {
			// The stall share alone exceeds the idle target; the best
			// the pipeline can do is keep pace with the device.
			corrected = c
		}
		hTarget = corrected
	}
	workBase := float64(w.Input.BatchRawBytes())/spec.DecodeMBpsPerThread +
		float64(w.Input.BatchSize)*spec.PerRecordOverheadUs
	boundBase := workBase / threads

	const serialShare = 0.82
	switch {
	case boundBase >= hTarget:
		// Base decode alone exceeds the target: nothing to add.
		w.Input.SerialUsPerBatch = 0
		w.Input.ExtraDecodeUsPerRecord = 0
	case boundBase >= (1-serialShare)*hTarget:
		// Base parallel work already fills the parallel share; the serial
		// part makes up the rest.
		w.Input.SerialUsPerBatch = hTarget - boundBase
		w.Input.ExtraDecodeUsPerRecord = 0
	default:
		w.Input.SerialUsPerBatch = serialShare * hTarget
		extraTotal := (1-serialShare)*hTarget*threads - workBase
		w.Input.ExtraDecodeUsPerRecord = extraTotal / float64(w.Input.BatchSize)
	}
	return nil
}

// Naive returns a copy of the workload with the untuned pipeline
// parameters of the paper's naive implementations (Section VII-C).
func (w *Workload) Naive() *Workload {
	c := *w
	c.Name = w.Name + "-naive"
	c.HostParams = host.NaiveParams()
	return &c
}

// Small returns the reduced-dataset variant used in Figures 12 and 13:
// QANet and RetinaNet on half their datasets, ResNet on CIFAR-10.
func (w *Workload) Small() (*Workload, error) {
	c := *w
	c.Name = w.Name + "-small"
	switch w.Model {
	case "ResNet-50":
		// Same methodology, CIFAR-10 input: native 32×32 images.
		ds := datasets.MustGet("cifar10")
		c.Dataset = ds
		c.TrainGraph = buildResNet(true, 32, w.BatchSize)
		c.EvalGraph = buildResNet(false, 32, w.BatchSize)
		if err := c.compile(); err != nil {
			return nil, fmt.Errorf("workloads: compiling %s: %w", c.Name, err)
		}
		c.Input.Name = ds.Name
		c.Input.RecordBytes = ds.RecordBytes()
		c.Input.DecodedBytes = ds.DecodedBytes
		c.Input.Records = effectiveRecords(ds.Records, w.PaperSteps, w.TrainSteps, w.BatchSize)
		// The host methodology (per-record and per-batch costs) carries
		// over unchanged — that is the point of Observation 6.
		return &c, nil
	default:
		half := w.Dataset.Halved()
		c.Dataset = half
		c.Input.Records = effectiveRecords(half.Records, w.PaperSteps, w.TrainSteps, w.BatchSize)
		return &c, nil
	}
}

// fnv hashes a name into a stable seed.
func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
