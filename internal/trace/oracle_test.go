package trace_test

// A step's operators used to be a Go map keyed by OpKey. That form is
// kept here as the oracle for the sorted list that replaced it: the old
// Observe, Merge, Clone, step aggregation, Equation-1 similarity, top-op
// table and feature columns, written the way they were, and differential
// tests that hold the list-walking production code to them — on the
// Table I recordings the benchmark uses and on seeded random fragment
// streams. (An external test package, so it can reach the simulator, the
// analyzer and the clustering front end, which all import trace.)

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	tpupoint "repro"
	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/core/cluster"
	"repro/internal/protowire"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ---- the oracle --------------------------------------------------------

type opStat struct {
	Count int64
	Total simclock.Duration
}

type mapStep struct {
	Step              int64
	Start, End        simclock.Time
	Ops               map[trace.OpKey]opStat
	IdleFrac, MXUUtil float64
}

func newMapStep(step int64) *mapStep {
	return &mapStep{Step: step, Ops: make(map[trace.OpKey]opStat)}
}

func (s *mapStep) observe(e trace.Event) {
	k := trace.OpKey{Name: e.Name, Device: e.Device}
	st := s.Ops[k]
	st.Count++
	st.Total += e.Dur
	s.Ops[k] = st
	if s.Start == 0 && s.End == 0 {
		s.Start, s.End = e.Start, e.End()
		return
	}
	if e.Start < s.Start {
		s.Start = e.Start
	}
	if e.End() > s.End {
		s.End = e.End()
	}
}

func (s *mapStep) merge(o *mapStep) {
	for k, st := range o.Ops {
		cur := s.Ops[k]
		cur.Count += st.Count
		cur.Total += st.Total
		s.Ops[k] = cur
	}
	durS, durO := float64(s.End.Sub(s.Start)), float64(o.End.Sub(o.Start))
	if durS+durO > 0 {
		s.IdleFrac = (s.IdleFrac*durS + o.IdleFrac*durO) / (durS + durO)
		s.MXUUtil = (s.MXUUtil*durS + o.MXUUtil*durO) / (durS + durO)
	}
	if o.Start < s.Start {
		s.Start = o.Start
	}
	if o.End > s.End {
		s.End = o.End
	}
}

func (s *mapStep) clone() *mapStep {
	c := *s
	c.Ops = make(map[trace.OpKey]opStat, len(s.Ops))
	for k, v := range s.Ops {
		c.Ops[k] = v
	}
	return &c
}

// mapReduce groups one window's events by step, as Reduce does.
func mapReduce(events []trace.Event, idle, mxu float64) []*mapStep {
	by := map[int64]*mapStep{}
	for _, e := range events {
		s, ok := by[e.Step]
		if !ok {
			s = newMapStep(e.Step)
			s.IdleFrac, s.MXUUtil = idle, mxu
			by[e.Step] = s
		}
		s.observe(e)
	}
	return sortedMapSteps(by)
}

func sortedMapSteps(by map[int64]*mapStep) []*mapStep {
	out := make([]*mapStep, 0, len(by))
	for _, s := range by {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

func mapAggregate(records [][]*mapStep) []*mapStep {
	by := map[int64]*mapStep{}
	for _, r := range records {
		for _, s := range r {
			if cur, ok := by[s.Step]; ok {
				cur.merge(s)
			} else {
				by[s.Step] = s.clone()
			}
		}
	}
	return sortedMapSteps(by)
}

func mapSimilarity(a, b *mapStep) float64 {
	small, large := a.Ops, b.Ops
	if len(large) < len(small) {
		small, large = large, small
	}
	if len(small) == 0 {
		if len(large) == 0 {
			return math.NaN()
		}
		return 0
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(small))
}

func mapTopOps(steps []*mapStep, dev trace.Device, n int) []trace.OpTotal {
	agg := map[string]opStat{}
	for _, s := range steps {
		for k, st := range s.Ops {
			if k.Device != dev {
				continue
			}
			cur := agg[k.Name]
			cur.Count += st.Count
			cur.Total += st.Total
			agg[k.Name] = cur
		}
	}
	out := make([]trace.OpTotal, 0, len(agg))
	for name, st := range agg {
		out = append(out, trace.OpTotal{Name: name, Device: dev, Count: st.Count, Total: st.Total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// mapFeatures is cluster.Features over maps: the columns (operators by
// descending total time, capped) and the row-major (count, duration)
// matrix.
func mapFeatures(steps []*mapStep) ([]trace.OpKey, []float64) {
	totals := map[trace.OpKey]float64{}
	for _, s := range steps {
		for k, st := range s.Ops {
			totals[k] += float64(st.Total)
		}
	}
	keys := make([]trace.OpKey, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if totals[keys[i]] != totals[keys[j]] {
			return totals[keys[i]] > totals[keys[j]]
		}
		return keys[i].Compare(keys[j]) < 0
	})
	if len(keys) > cluster.MaxFeatureOps {
		keys = keys[:cluster.MaxFeatureOps]
	}
	data := make([]float64, len(steps)*2*len(keys))
	for i, s := range steps {
		row := data[i*2*len(keys):]
		for j, k := range keys {
			if st, ok := s.Ops[k]; ok {
				row[2*j], row[2*j+1] = float64(st.Count), float64(st.Total)
			}
		}
	}
	return keys, data
}

// fromList is the oracle's view of a step the production code built.
func fromList(s *trace.StepStat) *mapStep {
	m := newMapStep(s.Step)
	m.Start, m.End, m.IdleFrac, m.MXUUtil = s.Start, s.End, s.IdleFrac, s.MXUUtil
	for _, e := range s.Ops {
		m.Ops[e.Key()] = opStat{Count: e.Count, Total: e.Total}
	}
	return m
}

func fromRecords(recs []*trace.ProfileRecord) [][]*mapStep {
	out := make([][]*mapStep, len(recs))
	for i, r := range recs {
		for _, s := range r.Steps {
			out[i] = append(out[i], fromList(s))
		}
	}
	return out
}

// sameStep requires got to be want, field for field and operator for
// operator, and to hold the list invariant.
func sameStep(t *testing.T, where string, got *trace.StepStat, want *mapStep) {
	t.Helper()
	trace.CheckOps(t, where, got)
	if got.Step != want.Step || got.Start != want.Start || got.End != want.End ||
		got.IdleFrac != want.IdleFrac || got.MXUUtil != want.MXUUtil {
		t.Fatalf("%s: step header %+v, oracle %+v", where, got, want)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("%s: step %d has %d operators, oracle %d", where, got.Step, len(got.Ops), len(want.Ops))
	}
	for k, st := range want.Ops {
		if g, ok := got.Op(k); !ok || g.Key() != k || g.Count != st.Count || g.Total != st.Total {
			t.Fatalf("%s: step %d op %v = %+v (present %v), oracle %+v", where, got.Step, k, g, ok, st)
		}
	}
}

// checkAgainstOracle holds every list-walking consumer to the oracle on
// one record set.
func checkAgainstOracle(t *testing.T, recs []*trace.ProfileRecord, oracle [][]*mapStep) {
	t.Helper()
	steps, want := trace.AggregateSteps(recs), mapAggregate(oracle)
	if len(steps) != len(want) {
		t.Fatalf("AggregateSteps: %d steps, oracle %d", len(steps), len(want))
	}
	for i := range steps {
		sameStep(t, "AggregateSteps", steps[i], want[i])
	}
	for i := 1; i < len(steps); i++ {
		got, w := analyzer.StepSimilarity(steps[i-1], steps[i]), mapSimilarity(want[i-1], want[i])
		if got != w && !(math.IsNaN(got) && math.IsNaN(w)) {
			t.Fatalf("StepSimilarity(%d, %d) = %v, oracle %v", steps[i-1].Step, steps[i].Step, got, w)
		}
	}
	for _, dev := range []trace.Device{trace.Host, trace.TPU} {
		for _, n := range []int{0, 5} {
			if got, w := trace.TopOps(steps, dev, n), mapTopOps(want, dev, n); !reflect.DeepEqual(got, w) {
				t.Fatalf("TopOps(%v, %d) = %+v, oracle %+v", dev, n, got, w)
			}
		}
	}
	wantKeys, wantData := mapFeatures(want)
	for _, workers := range []int{1, 4} {
		m, keys := cluster.Features(steps, workers)
		if !reflect.DeepEqual(keys, wantKeys) && len(keys)+len(wantKeys) > 0 {
			t.Fatalf("Features columns (workers=%d) = %v, oracle %v", workers, keys, wantKeys)
		}
		if !reflect.DeepEqual(m.Data, wantData) {
			t.Fatalf("Features matrix (workers=%d) differs from the oracle's", workers)
		}
	}
}

// ---- Table I recordings ------------------------------------------------

// tableI lists the recordings bench/ replays, each with the SHA-256 of
// the archive it finalizes to (300 steps, seed 1, OLS summary). They were
// captured at the last commit whose steps held maps and re-captured once
// when records gained open_step (field 10): with that field cleared the
// archives hash to the old pins. No byte on the wire or in the store may
// move with the container.
var tableI = []struct {
	workload string
	version  tpupoint.Version
	archive  string
}{
	{"bert-mrpc", tpupoint.V2, "91091ca47cbd84bc03ff77b8283c7f5c035d99e48183981a0346ff631838206f"},
	{"bert-mrpc", tpupoint.V3, "6b38cae09f386cd207f4669296a78387a1613667a8d3db2d9c7a12ac175ed610"},
	{"resnet-imagenet", tpupoint.V2, "ff257fdef3c7aecd4625d22b523ca8f8680b28d3c8e0f15fab58aba2d3cd32b5"},
	{"resnet-imagenet", tpupoint.V3, "4e3995c8ad716f49c15f163729d151bc3bd0165baa10e399105e0b0b6e1b37db"},
	{"dcgan-mnist", tpupoint.V2, "d8ff425f52ed68e4e80890588aa45032a40082d5677ea39d641f9ba320dadc27"},
	{"dcgan-mnist", tpupoint.V3, "f9b08cb1ea99a1b326149cb9dafbce51e2e3eb73bc7f6a12061c96dbe086c221"},
}

// recording simulates a workload and drains its profile the way bench/
// does: the profiler attaches after training, so the records are a pure
// function of the seed.
func recording(tb testing.TB, workload string, v tpupoint.Version, steps int) []*trace.ProfileRecord {
	tb.Helper()
	s, err := tpupoint.NewSession(workload, tpupoint.Options{Version: v, Steps: steps, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Train(); err != nil {
		tb.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := p.Stop()
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

func TestOpListMatchesMapOracleOnTableIRecordings(t *testing.T) {
	for _, rc := range tableI {
		t.Run(fmt.Sprintf("%s-%s", rc.workload, rc.version), func(t *testing.T) {
			recs := recording(t, rc.workload, rc.version, 300)
			checkAgainstOracle(t, recs, fromRecords(recs))

			// Byte identity: decode and re-encode every record, then the
			// decoded set must answer like the original.
			decoded := make([]*trace.ProfileRecord, len(recs))
			for i, r := range recs {
				b := trace.MarshalRecord(r)
				d, err := trace.UnmarshalRecord(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range d.Steps {
					trace.CheckOps(t, "decode", s)
				}
				if !bytes.Equal(trace.MarshalRecord(d), b) {
					t.Fatalf("record %d: MarshalRecord(UnmarshalRecord(b)) != b", i)
				}
				decoded[i] = d
			}
			checkAgainstOracle(t, decoded, fromRecords(recs))

			w := archive.NewWriter(archive.Meta{RunID: rc.workload + "-" + rc.version.String(),
				Workload: rc.workload, TPUVersion: rc.version.String(), CreatedSeq: 1})
			for _, r := range recs {
				w.Add(r)
			}
			rep, err := analyzer.Analyze(rc.workload, recs, analyzer.OLSAlgo, analyzer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			blob := w.Finalize(archive.SummarizeReport(rep))
			if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != rc.archive {
				t.Fatalf("finalized archive SHA-256 %s, pinned %s", got, rc.archive)
			}
		})
	}
}

// ---- seeded random fragment streams ------------------------------------

// randomWindows draws profile windows of random events: a vocabulary in
// which names repeat across devices and share prefixes, steps that
// straddle windows, windows delivered out of order.
func randomWindows(rng *rand.Rand, windows, eventsPer, vocab int) [][]trace.Event {
	names := make([]string, vocab)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", []string{"fusion", "fusion.", "Conv2D", "Infeed", "a", ""}[i%6], i/2)
	}
	out := make([][]trace.Event, windows)
	var ts simclock.Time
	for w := range out {
		for i := 0; i < eventsPer; i++ {
			dur := simclock.Duration(1 + rng.Intn(1000))
			out[w] = append(out[w], trace.Event{
				Name:   names[rng.Intn(vocab)],
				Device: trace.Device(rng.Intn(2)),
				Start:  ts,
				Dur:    dur,
				Step:   int64(w*3 + rng.Intn(5)), // overlaps the next window's steps
			})
			ts = ts.Add(simclock.Duration(rng.Intn(int(dur) + 1)))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestOpListMatchesMapOracleOnRandomFragments(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		windows := randomWindows(rng, 30, 40+rng.Intn(200), 3+rng.Intn(60))
		var recs []*trace.ProfileRecord
		var oracle [][]*mapStep
		for i, events := range windows {
			idle, mxu := rng.Float64(), rng.Float64()
			rec := trace.Reduce(int64(i), events[0].Start, events, idle, mxu)
			want := mapReduce(events, idle, mxu)
			if len(rec.Steps) != len(want) {
				t.Fatalf("seed %d: Reduce made %d steps, oracle %d", seed, len(rec.Steps), len(want))
			}
			for j, s := range rec.Steps {
				sameStep(t, "Reduce", s, want[j])
			}
			recs, oracle = append(recs, rec), append(oracle, want)
		}
		checkAgainstOracle(t, recs, oracle)
	}
}

// TestStepSeriesMatchesMapOracle: the running aggregate is the map-by-step
// aggregation whatever order the fragments come in and however they are
// cut into records — windows delivered out of order, a step number twice
// in one record, empty records, every record split in two, one Add per
// record or AggregateSteps over all — ascending, and equal field for
// field (the float metadata bit for bit: both merge in arrival order).
// Add leaves its input as it was and never shares memory with it.
func TestStepSeriesMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var recs []*trace.ProfileRecord
		for i, events := range randomWindows(rng, 40, 20+rng.Intn(120), 3+rng.Intn(40)) {
			rec := trace.Reduce(int64(i), events[0].Start, events, rng.Float64(), rng.Float64())
			switch rng.Intn(5) {
			case 0: // an empty record first
				recs = append(recs, &trace.ProfileRecord{Seq: int64(i), Gap: rng.Intn(2) == 0})
			case 1: // the record's steps twice over, the repeat reversed
				for j := len(rec.Steps) - 1; j >= 0; j-- {
					rec.Steps = append(rec.Steps, rec.Steps[j].Clone())
				}
			}
			recs = append(recs, rec)
		}
		oracle := fromRecords(recs)
		want := mapAggregate(oracle)

		check := func(where string, got []*trace.StepStat) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d steps, oracle %d", seed, where, len(got), len(want))
			}
			for i := range got {
				if i > 0 && got[i-1].Step >= got[i].Step {
					t.Fatalf("seed %d %s: step %d before step %d", seed, where, got[i-1].Step, got[i].Step)
				}
				sameStep(t, where, got[i], want[i])
			}
		}
		check("AggregateSteps", trace.AggregateSteps(recs))

		var one, halves trace.StepSeries
		for _, r := range recs {
			one.Add(r)
			cut := rng.Intn(len(r.Steps) + 1)
			halves.Add(&trace.ProfileRecord{Steps: r.Steps[:cut]})
			halves.Add(&trace.ProfileRecord{Steps: r.Steps[cut:]})
		}
		check("one Add per record", one.Steps())
		check("every record split in two", halves.Steps())

		// Add only read its input, and writing the input now reaches
		// nothing the series holds.
		for i, r := range recs {
			for j, s := range r.Steps {
				sameStep(t, "Add's argument", s, oracle[i][j])
				s.Start, s.End, s.IdleFrac, s.MXUUtil = -1, -1, -1, -1
				for k := range s.Ops {
					s.Ops[k] = trace.OpTotal{Name: "scribbled", Count: -1, Total: -1}
				}
			}
		}
		check("one Add per record, after its input was written", one.Steps())
	}
}

// TestOpListInvariantAfterEveryMutation walks one random stream a single
// operation at a time — every Observe, Merge, Clone and decode — checking
// the list against the oracle after each, and that Merge and Clone leave
// their argument as it was.
func TestOpListInvariantAfterEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var frags []*trace.StepStat
	var oracle []*mapStep
	for _, events := range randomWindows(rng, 12, 60, 25) {
		s, m := trace.NewStepStat(7), newMapStep(7)
		trace.CheckOps(t, "NewStepStat", s)
		for _, e := range events {
			s.Observe(e)
			m.observe(e)
			sameStep(t, "Observe", s, m)
		}
		c := s.Clone()
		sameStep(t, "Clone", c, m)
		c.Observe(events[0])
		sameStep(t, "Clone's source after the clone was written", s, m)

		rec, err := trace.UnmarshalRecord(trace.MarshalRecord(&trace.ProfileRecord{Steps: []*trace.StepStat{s}}))
		if err != nil {
			t.Fatal(err)
		}
		sameStep(t, "decode", rec.Steps[0], m)
		if !reflect.DeepEqual(rec.Steps[0], s) {
			t.Fatalf("decoded step is not DeepEqual to the step encoded:\n got %+v\nwant %+v", rec.Steps[0], s)
		}
		frags, oracle = append(frags, rec.Steps[0]), append(oracle, m)
	}
	empty, err := trace.UnmarshalRecord(trace.MarshalRecord(&trace.ProfileRecord{Steps: []*trace.StepStat{trace.NewStepStat(7)}}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty.Steps[0], trace.NewStepStat(7)) || !reflect.DeepEqual(empty.Steps[0].Clone(), trace.NewStepStat(7)) {
		t.Fatalf("an empty step decodes or clones to %+v, not DeepEqual to a new one", empty.Steps[0])
	}
	frags, oracle = append(frags, empty.Steps[0]), append(oracle, newMapStep(7))

	// Merge every fragment into every other, in both arms: into a clone
	// that already holds all of the argument's operators (in place) and
	// into one that does not (grown).
	for i, a := range frags {
		for j, b := range frags {
			before := fromList(b)
			acc, want := a.Clone(), oracle[i].clone()
			acc.Merge(b)
			want.merge(oracle[j])
			sameStep(t, "Merge (may grow)", acc, want)
			acc.Merge(b)
			want.merge(oracle[j])
			sameStep(t, "Merge (in place)", acc, want)
			sameStep(t, "Merge's argument", b, before)
			// The result must not share memory with the argument.
			for k := range acc.Ops {
				acc.Ops[k].Count = -1
			}
			sameStep(t, "Merge's argument after the result was written", b, before)
		}
	}
}

// ---- foreign encoders --------------------------------------------------

func opEntry(name string, dev trace.Device, count, total uint64) []byte {
	var b []byte
	b = protowire.AppendString(b, 1, name)
	b = protowire.AppendUint64(b, 2, uint64(dev))
	b = protowire.AppendUint64(b, 3, count)
	return protowire.AppendUint64(b, 4, total)
}

// TestDecodeFoldsUnsortedAndRepeatedOps: our encoder writes a step's op
// entries in list order, one per operator, and the decoder appends them.
// Another encoder need not; its entries must fold into the same sorted
// list a map keyed by operator would have given.
func TestDecodeFoldsUnsortedAndRepeatedOps(t *testing.T) {
	var step []byte
	step = protowire.AppendInt64(step, 1, 9)
	for _, e := range [][]byte{
		opEntry("zeta", trace.TPU, 1, 10),
		opEntry("alpha", trace.TPU, 2, 20),
		opEntry("zeta", trace.Host, 3, 30),
		opEntry("alpha", trace.TPU, 4, 40), // repeats an operator
		opEntry("mid", trace.Host, 5, 50),
		opEntry("zeta", trace.TPU, 6, 60), // and another
	} {
		step = protowire.AppendBytes(step, 6, e)
	}
	rec, err := trace.UnmarshalRecord(protowire.AppendBytes(nil, 8, step))
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.OpTotal{
		{Name: "mid", Device: trace.Host, Count: 5, Total: 50},
		{Name: "zeta", Device: trace.Host, Count: 3, Total: 30},
		{Name: "alpha", Device: trace.TPU, Count: 6, Total: 60},
		{Name: "zeta", Device: trace.TPU, Count: 7, Total: 70},
	}
	trace.CheckOps(t, "decode", rec.Steps[0])
	if !reflect.DeepEqual(rec.Steps[0].Ops, want) {
		t.Fatalf("folded list %+v, want %+v", rec.Steps[0].Ops, want)
	}

	// At size, in the worst order for a sorted list: 20 000 operators
	// descending, then all of them again.
	step, oracle := protowire.AppendInt64(nil, 1, 9), newMapStep(9)
	for pass := 0; pass < 2; pass++ {
		for i := 19_999; i >= 0; i-- {
			k := trace.OpKey{Name: fmt.Sprintf("op%05d", i), Device: trace.Device(i % 2)}
			step = protowire.AppendBytes(step, 6, opEntry(k.Name, k.Device, uint64(i), uint64(pass+1)))
			cur := oracle.Ops[k]
			oracle.Ops[k] = opStat{Count: cur.Count + int64(i), Total: cur.Total + simclock.Duration(pass+1)}
		}
	}
	if rec, err = trace.UnmarshalRecord(protowire.AppendBytes(nil, 8, step)); err != nil {
		t.Fatal(err)
	}
	sameStep(t, "decode of 40 000 unsorted entries", rec.Steps[0], oracle)
}

// foldInputs are TestDecodeFoldsUnsortedAndRepeatedOps's two records: six
// entries out of order with two operators repeated, and 20 000 operators
// descending, then all of them again.
func foldInputs() [][]byte {
	small := protowire.AppendInt64(nil, 1, 9)
	for _, e := range [][]byte{
		opEntry("zeta", trace.TPU, 1, 10),
		opEntry("alpha", trace.TPU, 2, 20),
		opEntry("zeta", trace.Host, 3, 30),
		opEntry("alpha", trace.TPU, 4, 40),
		opEntry("mid", trace.Host, 5, 50),
		opEntry("zeta", trace.TPU, 6, 60),
	} {
		small = protowire.AppendBytes(small, 6, e)
	}
	large := protowire.AppendInt64(nil, 1, 9)
	for pass := 0; pass < 2; pass++ {
		for i := 19_999; i >= 0; i-- {
			large = protowire.AppendBytes(large, 6, opEntry(fmt.Sprintf("op%05d", i), trace.Device(i%2), uint64(i), uint64(pass+1)))
		}
	}
	return [][]byte{protowire.AppendBytes(nil, 8, small), protowire.AppendBytes(nil, 8, large)}
}

// TestUnmarshalRecordMatchesOracle holds the slab decoder to the decoder
// it replaced (wire_oracle_test.go) on real and on foreign input: every
// record of the six Table I recordings, the folding test's unsorted and
// repeated entries, one step of 100 000 distinct names, and every
// truncation of one real record.
func TestUnmarshalRecordMatchesOracle(t *testing.T) {
	wire := foldInputs()
	wire = append(wire, trace.MarshalRecord(trace.ManyNamesRecord(100_000)))
	var cut []byte // the smallest real record of more than one step
	for _, rc := range tableI {
		for _, r := range recording(t, rc.workload, rc.version, 300) {
			b := trace.MarshalRecord(r)
			wire = append(wire, b)
			if len(r.Steps) > 1 && (cut == nil || len(b) < len(cut)) {
				cut = b
			}
		}
	}
	for i, b := range wire {
		trace.CheckDecodeMatchesOracle(t, fmt.Sprintf("input %d", i), b)
	}
	for n := range cut {
		trace.CheckDecodeMatchesOracle(t, fmt.Sprintf("a %d-byte record cut at %d", len(cut), n), cut[:n])
	}
}

// ---- allocation bounds -------------------------------------------------

// TestOpListAllocationBounds keeps the saving from rotting: a decode costs
// a bounded number of allocations per record whatever its step count (the
// record, its two slabs and its step pointers, once the name table has
// seen the run's names; 3 per step fragment when each step and each op
// list was its own allocation, 21 when every entry allocated its name and
// grew a map), and the two walks that run once per step pair — the
// similarity and a merge that adds no operator — cost none.
func TestOpListAllocationBounds(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	recs := recording(t, "resnet-imagenet", tpupoint.V2, 300)
	for i, r := range recs {
		b := trace.MarshalRecord(r)
		if _, err := trace.UnmarshalRecord(b); err != nil { // warm the name table
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := trace.UnmarshalRecord(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Fatalf("record %d: UnmarshalRecord made %.0f allocations for %d step fragments, want <= 6 a record",
				i, allocs, len(r.Steps))
		}
	}
	steps := trace.AggregateSteps(recs)
	a, b := steps[len(steps)/2], steps[len(steps)/2+1]
	if allocs := testing.AllocsPerRun(100, func() { analyzer.StepSimilarity(a, b) }); allocs != 0 {
		t.Fatalf("StepSimilarity: %.1f allocs/op, want 0", allocs)
	}
	acc := a.Clone()
	acc.Step = b.Step
	acc.Merge(b) // whatever b adds is in acc now
	if allocs := testing.AllocsPerRun(100, func() { acc.Merge(b) }); allocs != 0 {
		t.Fatalf("Merge adding no operator: %.1f allocs/op, want 0", allocs)
	}
}

// ---- benchmarks --------------------------------------------------------

// BenchmarkUnmarshalRecord decodes one six-event record (six-event), and
// every record of the six Table I recordings at 1000 steps (table-i), the
// latter reported per step fragment, per op entry and per record. The
// foreign-layout arm decodes the same records with each op entry's four
// fields in reverse order, which the decoder's fast path declines; its
// set-up checks they decode to the same records.
func BenchmarkUnmarshalRecord(b *testing.B) {
	var wire, foreign [][]byte
	frags, entries := 0, 0
	for _, rc := range tableI {
		for _, r := range recording(b, rc.workload, rc.version, 1000) {
			data := trace.MarshalRecord(r)
			wire = append(wire, data)
			foreign = append(foreign, reverseOpFields(b, data))
			frags += len(r.Steps)
			for _, s := range r.Steps {
				entries += len(s.Ops)
			}
		}
	}
	for i := range foreign {
		got, err := trace.UnmarshalRecord(foreign[i])
		if err != nil {
			b.Fatal(err)
		}
		if bytes.Equal(foreign[i], wire[i]) || !bytes.Equal(trace.MarshalRecord(got), wire[i]) {
			b.Fatalf("record %d: the foreign layout is the same bytes, or decodes to another record", i)
		}
	}
	b.Run("six-event", func(b *testing.B) {
		data := trace.MarshalRecord(trace.SampleRecord())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.UnmarshalRecord(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, arm := range []struct {
		name string
		wire [][]byte
	}{{"table-i", wire}, {"foreign-layout", foreign}} {
		b.Run(arm.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, data := range arm.wire {
					if _, err := trace.UnmarshalRecord(data); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			ns, n := float64(b.Elapsed().Nanoseconds()), float64(b.N)
			b.ReportMetric(ns/(n*float64(frags)), "ns/fragment")
			b.ReportMetric(ns/(n*float64(entries)), "ns/entry")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/(n*float64(len(arm.wire))), "allocs/record")
			b.ReportMetric(float64(len(arm.wire)), "records")
		})
	}
}

// reverseOpFields re-encodes a record as another encoder might: each op
// entry's fields in reverse order, every other byte as it was.
func reverseOpFields(tb testing.TB, record []byte) []byte {
	return mapFields(tb, record, 8, func(step []byte) []byte {
		return mapFields(tb, step, 6, func(op []byte) []byte {
			var fields [][]byte
			for b := op; len(b) > 0; {
				n := fieldLen(tb, b)
				fields, b = append(fields, b[:n]), b[n:]
			}
			var out []byte
			for i := len(fields) - 1; i >= 0; i-- {
				out = append(out, fields[i]...)
			}
			return out
		})
	})
}

// mapFields copies the message msg, passing the payload of each
// length-delimited field number field through fn.
func mapFields(tb testing.TB, msg []byte, field int, fn func([]byte) []byte) []byte {
	var out []byte
	for b := msg; len(b) > 0; {
		n := fieldLen(tb, b)
		if f, t, k := protowire.ConsumeTag(b); f == field && t == protowire.Bytes {
			payload, _ := protowire.ConsumeBytes(b[k:n])
			out = protowire.AppendBytes(out, f, fn(payload))
		} else {
			out = append(out, b[:n]...)
		}
		b = b[n:]
	}
	return out
}

// fieldLen is the length of the well-formed field, tag and payload, that
// starts b.
func fieldLen(tb testing.TB, b []byte) int {
	_, t, n := protowire.ConsumeTag(b)
	m := -1
	if n > 0 {
		m = protowire.ConsumeFieldValue(t, b[n:])
	}
	if m < 0 {
		tb.Fatalf("malformed field at % x", b[:min(len(b), 16)])
	}
	return n + m
}

// BenchmarkAggregateSteps is stage 1 of every analyzer method on a
// 1000-step recording: clone each step's first fragment, merge the rest.
// in-order is the recording as the profiler cut it (a window's fragments
// land on the newest few steps); late-100 re-cuts the same fragments so
// that every step's second fragment arrives 100 steps behind the newest,
// the walk back from the tail at its longest on a live stream.
func BenchmarkAggregateSteps(b *testing.B) {
	recs := recording(b, "resnet-imagenet", tpupoint.V2, 1000)
	var late []*trace.ProfileRecord
	steps := trace.AggregateSteps(recs)
	for lo := 0; lo < len(steps)+100; lo += 40 {
		rec := &trace.ProfileRecord{}
		for _, i := range []int{lo - 100, lo} { // the stragglers, then the window's own
			for j := max(i, 0); j < min(i+40, len(steps)); j++ {
				rec.Steps = append(rec.Steps, steps[j])
			}
		}
		late = append(late, rec)
	}
	for _, c := range []struct {
		name string
		recs []*trace.ProfileRecord
	}{{"in-order", recs}, {"late-100", late}} {
		b.Run(c.name, func(b *testing.B) {
			frags := 0
			for _, r := range c.recs {
				frags += len(r.Steps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var steps []*trace.StepStat
			for i := 0; i < b.N; i++ {
				steps = trace.AggregateSteps(c.recs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frags), "ns/fragment")
			b.ReportMetric(float64(len(steps)), "steps")
		})
	}
}
