// Package cloud is the infrastructure-provider substrate of the OmpCloud
// runtime: the analog of AWS EC2 plus the cgcloud provisioning script the
// paper uses to instantiate its Spark cluster (§IV), and of the plugin's
// on-the-fly instance start/stop that lets the programmer "pay for just the
// amount of computational resources used" (§III.A).
//
// Real clouds are replaced by a deterministic simulated provider with the
// same observable lifecycle (pending -> running -> stopping -> stopped ->
// terminated), the real c3 instance catalogue, and per-hour cost accounting
// against the virtual clock.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ompcloud/internal/simtime"
)

// InstanceType describes a purchasable machine shape.
type InstanceType struct {
	Name          string
	VCPUs         int // hyper-threads as advertised
	PhysicalCores int // dedicated cores (paper: 1 core = 2 vCPUs)
	MemGB         int
	PricePerHour  float64 // USD, on-demand
}

// Catalogue lists the instance types known to the simulated provider. The
// c3 family matches the paper's cluster ("the largest AWS EC2 instances of
// type c3 has 16 cores"); prices are the historical us-east-1 on-demand
// rates, used only for relative cost reporting.
var Catalogue = []InstanceType{
	{Name: "c3.large", VCPUs: 2, PhysicalCores: 1, MemGB: 4, PricePerHour: 0.105},
	{Name: "c3.xlarge", VCPUs: 4, PhysicalCores: 2, MemGB: 8, PricePerHour: 0.210},
	{Name: "c3.2xlarge", VCPUs: 8, PhysicalCores: 4, MemGB: 15, PricePerHour: 0.420},
	{Name: "c3.4xlarge", VCPUs: 16, PhysicalCores: 8, MemGB: 30, PricePerHour: 0.840},
	{Name: "c3.8xlarge", VCPUs: 32, PhysicalCores: 16, MemGB: 60, PricePerHour: 1.680},
}

// LookupType finds an instance type by name.
func LookupType(name string) (InstanceType, error) {
	for _, t := range Catalogue {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// PerCoreHourUSD reports the type's on-demand price per physical core-hour
// — the catalogue-derived default for a device's cost-core-hour knob and
// the autoscaler's cost model. (The whole c3 family prices out to the same
// $0.105/core-hour, which is why the paper could pick size by convenience.)
func (t InstanceType) PerCoreHourUSD() float64 {
	if t.PhysicalCores < 1 {
		return t.PricePerHour
	}
	return t.PricePerHour / float64(t.PhysicalCores)
}

// State is an instance lifecycle state.
type State int

// Lifecycle states, in their natural order.
const (
	Pending State = iota
	Running
	Stopping
	Stopped
	Terminated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Stopping:
		return "stopping"
	case Stopped:
		return "stopped"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrBadCredentials is returned by providers that reject the configured
// credentials; the offloading runtime reacts by falling back to the host
// device.
var ErrBadCredentials = errors.New("cloud: authentication failed")

// Credentials carries the access information the configuration file supplies
// (paper §III.A: "the user has to provide an identification/authentication
// information ... to allow the connection").
type Credentials struct {
	AccessKey string
	SecretKey string
	Region    string
}

// Instance is a handle to one provisioned machine.
type Instance struct {
	ID   string
	Type InstanceType

	mu        sync.Mutex
	state     State
	startedAt simtime.Duration // virtual time when it last entered Running
	billed    simtime.Duration // accumulated running time
}

// State reports the current lifecycle state.
func (i *Instance) State() State {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.state
}

// BilledTime reports the accumulated virtual running time, including the
// current running stretch evaluated at now.
func (i *Instance) BilledTime(now simtime.Duration) simtime.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	total := i.billed
	if i.state == Running {
		total += now - i.startedAt
	}
	return total
}

// Cost reports the accumulated cost at now. EC2 bills the c3 generation by
// the started hour; we keep that quirk because it is what makes short jobs
// on big clusters disproportionately expensive, a trade-off the paper's
// cost discussion is about.
func (i *Instance) Cost(now simtime.Duration) float64 {
	t := i.BilledTime(now)
	if t == 0 {
		return 0
	}
	hours := int64(t / simtime.Hour)
	if t%simtime.Hour != 0 {
		hours++
	}
	return float64(hours) * i.Type.PricePerHour
}

// Provider is the control-plane abstraction: start, stop and terminate
// instances. Implementations must be safe for concurrent use.
type Provider interface {
	// Name identifies the provider ("sim-ec2", ...).
	Name() string
	// Launch creates count instances of the given type in Pending state
	// and returns once they reach Running (virtual boot time is charged
	// to the provider's clock).
	Launch(t InstanceType, count int) ([]*Instance, error)
	// Stop transitions a running instance to Stopped.
	Stop(inst *Instance) error
	// Start restarts a stopped instance.
	Start(inst *Instance) error
	// Terminate releases the instance permanently.
	Terminate(inst *Instance) error
	// Clock exposes the provider's virtual clock (shared with the
	// simulation driving it).
	Clock() *simtime.Clock
}

// SimProvider is the deterministic EC2 stand-in.
type SimProvider struct {
	name     string
	bootTime simtime.Duration
	creds    Credentials
	authFail bool

	mu     sync.Mutex
	clock  *simtime.Clock
	nextID int
	all    []*Instance
}

// Option configures a SimProvider.
type Option func(*SimProvider)

// WithBootTime sets the virtual pending->running delay (default 45 s, a
// realistic EC2 boot).
func WithBootTime(d simtime.Duration) Option {
	return func(p *SimProvider) { p.bootTime = d }
}

// WithClock shares an external virtual clock.
func WithClock(c *simtime.Clock) Option {
	return func(p *SimProvider) { p.clock = c }
}

// NewSimProvider builds a simulated provider authenticated with creds.
func NewSimProvider(creds Credentials, opts ...Option) *SimProvider {
	p := &SimProvider{
		name:     "sim-ec2",
		bootTime: 45 * simtime.Second,
		creds:    creds,
		clock:    &simtime.Clock{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements Provider.
func (p *SimProvider) Name() string { return p.name }

// Clock implements Provider.
func (p *SimProvider) Clock() *simtime.Clock { return p.clock }

// Launch implements Provider.
func (p *SimProvider) Launch(t InstanceType, count int) ([]*Instance, error) {
	if p.authFail || p.creds.AccessKey == "" {
		return nil, ErrBadCredentials
	}
	if count <= 0 {
		return nil, fmt.Errorf("cloud: launch count must be positive, got %d", count)
	}
	if _, err := LookupType(t.Name); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Instances boot in parallel: one boot time regardless of count.
	p.clock.Advance(p.bootTime)
	now := p.clock.Now()
	out := make([]*Instance, count)
	for i := range out {
		p.nextID++
		inst := &Instance{
			ID:    fmt.Sprintf("i-%06d", p.nextID),
			Type:  t,
			state: Running,
		}
		inst.startedAt = now
		out[i] = inst
		p.all = append(p.all, inst)
	}
	return out, nil
}

func (p *SimProvider) transition(inst *Instance, from, to State) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state != from {
		return fmt.Errorf("cloud: instance %s is %v, cannot go %v -> %v", inst.ID, inst.state, from, to)
	}
	now := p.clock.Now()
	if from == Running {
		inst.billed += now - inst.startedAt
	}
	if to == Running {
		inst.startedAt = now
	}
	inst.state = to
	return nil
}

// Stop implements Provider.
func (p *SimProvider) Stop(inst *Instance) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.transition(inst, Running, Stopping); err != nil {
		return err
	}
	p.clock.Advance(5 * simtime.Second)
	return p.transition(inst, Stopping, Stopped)
}

// Start implements Provider.
func (p *SimProvider) Start(inst *Instance) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock.Advance(p.bootTime)
	return p.transition(inst, Stopped, Running)
}

// Terminate implements Provider.
func (p *SimProvider) Terminate(inst *Instance) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	inst.mu.Lock()
	st := inst.state
	inst.mu.Unlock()
	switch st {
	case Running:
		if err := p.transition(inst, Running, Terminated); err != nil {
			return err
		}
	case Stopped:
		if err := p.transition(inst, Stopped, Terminated); err != nil {
			return err
		}
	case Terminated:
		return fmt.Errorf("cloud: instance %s already terminated", inst.ID)
	default:
		return fmt.Errorf("cloud: cannot terminate instance %s in state %v", inst.ID, st)
	}
	return nil
}

// Instances returns every instance ever launched, for cost reports.
func (p *SimProvider) Instances() []*Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Instance, len(p.all))
	copy(out, p.all)
	return out
}

// TotalCost sums the cost of all instances at the provider's current clock.
func (p *SimProvider) TotalCost() float64 {
	now := p.clock.Now()
	var sum float64
	for _, inst := range p.Instances() {
		sum += inst.Cost(now)
	}
	return sum
}

var _ Provider = (*SimProvider)(nil)

// Cluster is a provisioned Spark deployment: one driver plus workers, the
// exact topology of the paper's experiments (1 driver + 16 workers of
// c3.8xlarge).
type Cluster struct {
	Provider Provider
	Driver   *Instance
	Workers  []*Instance
	// Retired holds workers removed by elastic scale-in: they run no more
	// tasks, but the hours they already billed stay in the cost ledger —
	// scaling down never un-spends money.
	Retired []*Instance
}

// Provision launches a driver and `workers` worker instances of the given
// type, mirroring the cgcloud script the paper uses.
func Provision(p Provider, typeName string, workers int) (*Cluster, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("cloud: need at least one worker, got %d", workers)
	}
	t, err := LookupType(typeName)
	if err != nil {
		return nil, err
	}
	insts, err := p.Launch(t, workers+1)
	if err != nil {
		return nil, err
	}
	return &Cluster{Provider: p, Driver: insts[0], Workers: insts[1:]}, nil
}

// CoresPerWorker reports the dedicated cores of one worker. The paper
// assigns 2 vCPUs (= 1 physical core) per Spark task, so the usable task
// slots per worker equal the physical core count.
func (c *Cluster) CoresPerWorker() int { return c.Workers[0].Type.PhysicalCores }

// TotalCores reports the cluster-wide worker core count.
func (c *Cluster) TotalCores() int { return len(c.Workers) * c.CoresPerWorker() }

// StopAll stops every instance (driver last), the "stopped after it ends its
// execution" half of the auto start/stop feature.
func (c *Cluster) StopAll() error {
	var firstErr error
	for _, w := range c.Workers {
		if err := c.Provider.Stop(w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.Provider.Stop(c.Driver); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Cost reports the accumulated cluster cost at the provider's clock,
// retired workers included.
func (c *Cluster) Cost() float64 {
	now := c.Provider.Clock().Now()
	sum := c.Driver.Cost(now)
	for _, w := range c.Workers {
		sum += w.Cost(now)
	}
	for _, w := range c.Retired {
		sum += w.Cost(now)
	}
	return sum
}

// Grow launches n more workers of the cluster's worker type. The launch
// blocks through the provider's virtual boot time — the per-instance
// warm-up an elastic autoscaler charges on the virtual clock — and the
// newcomers join Running and billing from their boot.
func (c *Cluster) Grow(n int) error {
	if n <= 0 {
		return nil
	}
	insts, err := c.Provider.Launch(c.Workers[0].Type, n)
	if err != nil {
		return err
	}
	c.Workers = append(c.Workers, insts...)
	return nil
}

// Shrink terminates the last n workers, keeping at least one, and moves
// them to the Retired ledger so their already-billed hours stay counted.
func (c *Cluster) Shrink(n int) error {
	for i := 0; i < n && len(c.Workers) > 1; i++ {
		w := c.Workers[len(c.Workers)-1]
		if err := c.Provider.Terminate(w); err != nil {
			return err
		}
		c.Workers = c.Workers[:len(c.Workers)-1]
		c.Retired = append(c.Retired, w)
	}
	return nil
}

// Report renders a deterministic multi-line cost/usage summary.
func (c *Cluster) Report() string {
	now := c.Provider.Clock().Now()
	lines := []string{fmt.Sprintf("cluster on %s: 1 driver + %d workers (%s, %d cores each)",
		c.Provider.Name(), len(c.Workers), c.Workers[0].Type.Name, c.CoresPerWorker())}
	insts := append([]*Instance{c.Driver}, c.Workers...)
	rows := make([]string, 0, len(insts))
	for _, inst := range insts {
		rows = append(rows, fmt.Sprintf("  %s %-10s ran %v cost $%.2f",
			inst.ID, inst.State(), inst.BilledTime(now).Real(), inst.Cost(now)))
	}
	sort.Strings(rows)
	lines = append(lines, rows...)
	lines = append(lines, fmt.Sprintf("  total: $%.2f", c.Cost()))
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}
