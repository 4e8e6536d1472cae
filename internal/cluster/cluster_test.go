package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// runOnce builds a cluster at the given phase-1 parallelism, schedules it
// under policy, saves the archives, and returns everything observable:
// the schedule trace, the report, and the raw stored bytes.
func runOnce(t *testing.T, spec Spec, par int, policy string) (*Result, map[string][]byte) {
	t.Helper()
	spec.Parallelism = par
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Schedule(policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := storage.NewService()
	bucket, err := svc.CreateBucket(fmt.Sprintf("det-p%d", par))
	if err != nil {
		t.Fatal(err)
	}
	r := repo.New(bucket)
	saved, err := c.SaveArchives(r, res, "det")
	if err != nil {
		t.Fatal(err)
	}
	if saved != res.Report.Accepted {
		t.Fatalf("lost jobs: saved %d archives, accepted %d", saved, res.Report.Accepted)
	}
	objs := map[string][]byte{}
	for _, name := range bucket.List("") {
		obj, err := bucket.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		objs[name] = obj.Data
	}
	return res, objs
}

// The determinism hard contract: same seed + spec ⇒ bit-identical
// schedule trace, fairness report, and archived profiles at any
// -parallelism. Run with -race in CI.
func TestDeterminismAcrossParallelism(t *testing.T) {
	spec, err := Preset("smoke", 42)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, baseObjs := runOnce(t, spec, 1, PolicyLeastLoad)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		res, objs := runOnce(t, spec, par, PolicyLeastLoad)
		if !reflect.DeepEqual(baseRes.Outcomes, res.Outcomes) {
			t.Fatalf("parallelism %d: schedule trace diverged", par)
		}
		if !reflect.DeepEqual(baseRes.Report, res.Report) {
			t.Fatalf("parallelism %d: fairness report diverged:\nbase: %+v\n got: %+v",
				par, baseRes.Report, res.Report)
		}
		if len(objs) != len(baseObjs) {
			t.Fatalf("parallelism %d: %d stored objects, want %d", par, len(objs), len(baseObjs))
		}
		for name, data := range baseObjs {
			if !bytes.Equal(objs[name], data) {
				t.Fatalf("parallelism %d: object %s differs byte-wise", par, name)
			}
		}
	}
}

// Accepted ⇒ archived (zero lost jobs), shed ⇒ rpc.ErrBusy, and the
// accounting identities hold across the report.
func TestZeroLossAccounting(t *testing.T) {
	spec, err := Preset("rush", 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range Policies() {
		res, err := c.Schedule(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if rep.Submitted != rep.Accepted+rep.Shed {
			t.Fatalf("%s: submitted %d != accepted %d + shed %d",
				policy, rep.Submitted, rep.Accepted, rep.Shed)
		}
		if rep.Completed != rep.Accepted {
			t.Fatalf("%s: completed %d != accepted %d", policy, rep.Completed, rep.Accepted)
		}
		total := 0
		for _, ts := range spec.Tenants {
			total += ts.Jobs
		}
		if rep.Submitted != total {
			t.Fatalf("%s: submitted %d, want %d", policy, rep.Submitted, total)
		}
		for _, o := range res.Outcomes {
			if o.Accepted {
				if o.ShedErr != nil || o.Worker < 0 || o.End < o.Start {
					t.Fatalf("%s: bad accepted outcome %+v", policy, o)
				}
				continue
			}
			if !errors.Is(o.ShedErr, rpc.ErrBusy) {
				t.Fatalf("%s: shed job %s error %v does not wrap rpc.ErrBusy",
					policy, o.Job.ID, o.ShedErr)
			}
			if !rpc.IsTransient(o.ShedErr) {
				t.Fatalf("%s: shed error %v not transient", policy, o.ShedErr)
			}
		}

		svc := storage.NewService()
		bucket, err := svc.CreateBucket("loss-" + policy)
		if err != nil {
			t.Fatal(err)
		}
		r := repo.New(bucket)
		saved, err := c.SaveArchives(r, res, policy)
		if err != nil {
			t.Fatal(err)
		}
		if saved != rep.Accepted {
			t.Fatalf("%s: saved %d, accepted %d", policy, saved, rep.Accepted)
		}
		runs, err := r.List(repo.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != saved {
			t.Fatalf("%s: listed %d runs, saved %d", policy, len(runs), saved)
		}
		frep, err := r.Fsck(false)
		if err != nil {
			t.Fatal(err)
		}
		if !frep.Clean() {
			t.Fatalf("%s: fsck not clean: %+v", policy, frep)
		}
	}
}

// The rush preset's fairness surface is simulated time, so it is
// bit-deterministic on any machine: a change to a routing policy, the
// admission budgets or the preset shows here as a changed number.
func TestRushFairnessPinned(t *testing.T) {
	spec, err := Preset("rush", 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		policy  string
		jain    float64
		waitP99 simclock.Duration
		shed    int
	}{
		{PolicyLeastLoad, 0.5659681479140075, 24166021, 96},
		{PolicyRoundRobin, 0.4655153697414371, 89944247, 72},
		{PolicyAffinity, 0.4489646777552065, 84389074, 74},
	} {
		res, err := c.Schedule(want.policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if rep.JainIndex != want.jain || rep.MaxWaitP99 != want.waitP99 || rep.Shed != want.shed {
			t.Errorf("%s: jain %v, worst-tenant p99 wait %d, shed %d; want %v, %d, %d", want.policy,
				rep.JainIndex, rep.MaxWaitP99, rep.Shed, want.jain, want.waitP99, want.shed)
		}
	}
}

// The saved archives carry tenant identity end-to-end so runs list
// -tenant works against cluster fleets.
func TestSavedArchivesCarryTenant(t *testing.T) {
	spec, err := Preset("smoke", 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Schedule(PolicyRoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("tenancy")
	r := repo.New(bucket)
	if _, err := c.SaveArchives(r, res, "smoke"); err != nil {
		t.Fatal(err)
	}
	perTenant := map[string]int{}
	for _, o := range res.Outcomes {
		if o.Accepted {
			perTenant[o.Job.Tenant]++
		}
	}
	for tenant, want := range perTenant {
		runs, err := r.List(repo.Filter{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != want {
			t.Fatalf("tenant %s: listed %d, want %d", tenant, len(runs), want)
		}
		for _, info := range runs {
			if info.Tenant != tenant {
				t.Fatalf("run %s tenant %q, want %q", info.RunID, info.Tenant, tenant)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good, err := Preset("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	good = good.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	mutate := func(f func(*Spec)) Spec {
		s := good
		s.Tenants = append([]TenantSpec(nil), good.Tenants...)
		f(&s)
		return s
	}
	bads := []struct {
		name string
		s    Spec
	}{
		{"no-workers", mutate(func(s *Spec) { s.Workers = 0 })},
		{"no-steps", mutate(func(s *Spec) { s.Steps = -1 })},
		{"no-queue", mutate(func(s *Spec) { s.QueueDepth = -2 })},
		{"no-tenants", mutate(func(s *Spec) { s.Tenants = nil })},
		{"dup-tenant", mutate(func(s *Spec) { s.Tenants = append(s.Tenants, s.Tenants[0]) })},
		{"no-jobs", mutate(func(s *Spec) { s.Tenants[0].Jobs = 0 })},
		{"no-workloads", mutate(func(s *Spec) { s.Tenants[0].Workloads = nil })},
		{"bad-arrival", mutate(func(s *Spec) { s.Tenants[0].ArrivalMeanUs = 0 })},
		{"bad-rate", mutate(func(s *Spec) { s.Tenants[0].RatePerSec = 0 })},
		{"bad-host", mutate(func(s *Spec) { s.HostSpec.Cores = -1 })},
	}
	for _, tc := range bads {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Validate() = %v, want ErrBadSpec", err)
			}
		})
	}
	if _, err := Preset("no-such", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSignatureDistance(t *testing.T) {
	a := signature{{"Conv2D", 0.7}, {"MatMul", 0.3}}
	b := signature{{"Conv2D", 0.7}, {"MatMul", 0.3}}
	if d := a.Distance(b); d != 0 {
		t.Fatalf("identical signatures distance %g", d)
	}
	c := signature{{"Softmax", 1.0}}
	if d := a.Distance(c); d != 2 {
		t.Fatalf("disjoint signatures distance %g, want 2", d)
	}
	if d := signature(nil).Distance(a); d != 2 {
		t.Fatalf("nil signature distance %g, want 2", d)
	}
	shifted := signature{{"Conv2D", 0.6}, {"MatMul", 0.4}}
	if d := a.Distance(shifted); d < 0.19 || d > 0.21 {
		t.Fatalf("shifted distance %g, want ~0.2", d)
	}
}
