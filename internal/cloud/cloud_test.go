package cloud

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"ompcloud/internal/simtime"
)

func testCreds() Credentials {
	return Credentials{AccessKey: "AKIATEST", SecretKey: "s3cret", Region: "us-east-1"}
}

func TestCatalogueLookup(t *testing.T) {
	it, err := LookupType("c3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if it.VCPUs != 32 || it.PhysicalCores != 16 || it.MemGB != 60 {
		t.Fatalf("c3.8xlarge shape wrong: %+v", it)
	}
	if _, err := LookupType("z9.mega"); err == nil {
		t.Fatal("unknown type should error")
	}
	// Paper's vCPU = 2x physical core rule holds across the family.
	for _, it := range Catalogue {
		if it.VCPUs != 2*it.PhysicalCores {
			t.Fatalf("%s: vCPUs %d != 2 x cores %d", it.Name, it.VCPUs, it.PhysicalCores)
		}
	}
}

func TestLaunchLifecycle(t *testing.T) {
	p := NewSimProvider(testCreds(), WithBootTime(30*simtime.Second))
	it, _ := LookupType("c3.large")
	insts, err := p.Launch(it, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("launched %d", len(insts))
	}
	if p.Clock().Now() != 30*simtime.Second {
		t.Fatalf("boot should advance clock once (parallel boot): %v", p.Clock().Now())
	}
	for _, inst := range insts {
		if inst.State() != Running {
			t.Fatalf("instance %s state %v", inst.ID, inst.State())
		}
	}
	if insts[0].ID == insts[1].ID {
		t.Fatal("instance IDs must be unique")
	}

	inst := insts[0]
	p.Clock().Advance(10 * simtime.Minute)
	if err := p.Stop(inst); err != nil {
		t.Fatal(err)
	}
	if inst.State() != Stopped {
		t.Fatalf("state after stop: %v", inst.State())
	}
	billed := inst.BilledTime(p.Clock().Now())
	if billed != 10*simtime.Minute {
		t.Fatalf("billed = %v, want 10m", billed)
	}
	// Stopped time is not billed.
	p.Clock().Advance(time1Hour())
	if got := inst.BilledTime(p.Clock().Now()); got != billed {
		t.Fatalf("billing advanced while stopped: %v", got)
	}
	if err := p.Start(inst); err != nil {
		t.Fatal(err)
	}
	if inst.State() != Running {
		t.Fatalf("state after start: %v", inst.State())
	}
	if err := p.Terminate(inst); err != nil {
		t.Fatal(err)
	}
	if inst.State() != Terminated {
		t.Fatalf("state after terminate: %v", inst.State())
	}
	if err := p.Terminate(inst); err == nil {
		t.Fatal("double terminate should error")
	}
}

func time1Hour() simtime.Duration { return simtime.Hour }

func TestInvalidTransitions(t *testing.T) {
	p := NewSimProvider(testCreds())
	it, _ := LookupType("c3.large")
	insts, err := p.Launch(it, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if err := p.Start(inst); err == nil {
		t.Fatal("starting a running instance should error")
	}
	if err := p.Stop(inst); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(inst); err == nil {
		t.Fatal("stopping a stopped instance should error")
	}
}

// withAuthFailure makes every Launch fail with ErrBadCredentials.
func withAuthFailure() Option {
	return func(p *SimProvider) { p.authFail = true }
}

func TestAuthFailure(t *testing.T) {
	p := NewSimProvider(testCreds(), withAuthFailure())
	it, _ := LookupType("c3.large")
	if _, err := p.Launch(it, 1); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("want ErrBadCredentials, got %v", err)
	}
	empty := NewSimProvider(Credentials{})
	if _, err := empty.Launch(it, 1); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("empty access key should fail auth, got %v", err)
	}
}

func TestLaunchValidation(t *testing.T) {
	p := NewSimProvider(testCreds())
	it, _ := LookupType("c3.large")
	if _, err := p.Launch(it, 0); err == nil {
		t.Fatal("count 0 should error")
	}
	if _, err := p.Launch(InstanceType{Name: "bogus"}, 1); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestHourlyBilling(t *testing.T) {
	p := NewSimProvider(testCreds(), WithBootTime(0))
	it, _ := LookupType("c3.8xlarge")
	insts, err := p.Launch(it, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	p.Clock().Advance(90 * simtime.Minute) // 1.5h -> billed as 2h
	want := 2 * it.PricePerHour
	if got := inst.Cost(p.Clock().Now()); got != want {
		t.Fatalf("Cost = %.3f, want %.3f", got, want)
	}
	if got := (&Instance{Type: it}).Cost(0); got != 0 {
		t.Fatalf("unbooted instance cost = %v", got)
	}
}

func TestProvisionCluster(t *testing.T) {
	p := NewSimProvider(testCreds(), WithBootTime(0))
	c, err := Provision(p, "c3.8xlarge", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workers) != 16 || c.Driver == nil {
		t.Fatalf("cluster shape wrong: %d workers", len(c.Workers))
	}
	if c.CoresPerWorker() != 16 {
		t.Fatalf("CoresPerWorker = %d", c.CoresPerWorker())
	}
	if c.TotalCores() != 256 {
		t.Fatalf("TotalCores = %d, want the paper's 256", c.TotalCores())
	}
	p.Clock().Advance(time1Hour())
	if err := c.StopAll(); err != nil {
		t.Fatal(err)
	}
	for _, w := range append([]*Instance{c.Driver}, c.Workers...) {
		if w.State() != Stopped {
			t.Fatalf("instance %s not stopped: %v", w.ID, w.State())
		}
	}
	// 17 instances x >=1h x $1.68.
	if cost := c.Cost(); cost < 17*1.68 {
		t.Fatalf("cluster cost = %.2f, want >= %.2f", cost, 17*1.68)
	}
	rep := c.Report()
	if !strings.Contains(rep, "16 workers") || !strings.Contains(rep, "total: $") {
		t.Fatalf("report malformed:\n%s", rep)
	}
	if got := p.TotalCost(); got != c.Cost() {
		t.Fatalf("provider cost %.2f != cluster cost %.2f", got, c.Cost())
	}
}

func TestProvisionErrors(t *testing.T) {
	p := NewSimProvider(testCreds())
	if _, err := Provision(p, "c3.8xlarge", 0); err == nil {
		t.Fatal("zero workers should error")
	}
	if _, err := Provision(p, "nope", 1); err == nil {
		t.Fatal("unknown type should error")
	}
	bad := NewSimProvider(Credentials{})
	if _, err := Provision(bad, "c3.large", 1); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("want auth error, got %v", err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Pending: "pending", Running: "running",
		Stopping: "stopping", Stopped: "stopped", Terminated: "terminated", State(9): "State(9)"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", int(s), s.String())
		}
	}
}

func TestSharedClock(t *testing.T) {
	var clk simtime.Clock
	clk.Advance(simtime.Hour)
	p := NewSimProvider(testCreds(), WithClock(&clk), WithBootTime(simtime.Second))
	it, _ := LookupType("c3.large")
	if _, err := p.Launch(it, 1); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != simtime.Hour+simtime.Second {
		t.Fatalf("shared clock not advanced: %v", clk.Now())
	}
}

// Property: an instance's billed time never exceeds the wall time elapsed
// since its launch, and cost is monotone in time.
func TestBillingBoundsProperty(t *testing.T) {
	f := func(stints []uint16) bool {
		p := NewSimProvider(testCreds(), WithBootTime(0))
		it, _ := LookupType("c3.large")
		insts, err := p.Launch(it, 1)
		if err != nil {
			return false
		}
		inst := insts[0]
		launchAt := p.Clock().Now()
		running := true
		var prevCost float64
		for _, s := range stints {
			p.Clock().Advance(simtime.Duration(s) * simtime.Second)
			if running {
				if err := p.Stop(inst); err != nil {
					return false
				}
			} else {
				if err := p.Start(inst); err != nil {
					return false
				}
			}
			running = !running
			now := p.Clock().Now()
			if inst.BilledTime(now) > now-launchAt {
				return false
			}
			cost := inst.Cost(now)
			if cost < prevCost {
				return false
			}
			prevCost = cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
