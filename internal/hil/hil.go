// Package hil implements the hardware-in-the-loop testbench: it wires
// the simulated vehicle plant, the FSRACC feature, the actuation ECUs
// and the broadcast bus into a fixed-step co-simulation, and provides
// the black-box injection multiplexors used for robustness testing.
//
// It stands in for the dSPACE bench plus ControlDesk from the paper:
//
//   - Each FSRACC input is routed through an added multiplexor with an
//     inject value and an enable, exactly as the paper instrumented the
//     feature model (the feature code itself is untouched).
//   - The injection interface performs strong data-type bounds checking
//     when TypeChecking is on (the HIL behaviour that limited what could
//     be injected, Section V.C.3); switching it off models injecting on
//     a real vehicle network, which checks nothing.
//   - Trace capture is the bus frame log; the monitor consumes only
//     that log.
package hil

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/fsracc"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/vehicle"
)

// DriverCommands is what the (scripted) driver does at a point in time.
type DriverCommands struct {
	// ACCSetSpeed is the commanded cruise speed in m/s (0 disengages).
	ACCSetSpeed float64
	// SelHeadway is the selected headway enum ordinal.
	SelHeadway float64
	// BrakePedPres is the brake pedal pressure in bar.
	BrakePedPres float64
	// AccelPedPos is the accelerator pedal position in percent.
	AccelPedPos float64
}

// DriverModel scripts the driver over scenario time.
type DriverModel interface {
	// Commands returns the driver inputs at scenario time t.
	Commands(t time.Duration) DriverCommands
}

// DriverFunc adapts a function to DriverModel.
type DriverFunc func(t time.Duration) DriverCommands

// Commands implements DriverModel.
func (f DriverFunc) Commands(t time.Duration) DriverCommands { return f(t) }

// TrafficModel scripts surrounding traffic over scenario time.
type TrafficModel interface {
	// Step advances traffic by dt seconds at scenario time t.
	Step(dt float64, t time.Duration)
	// Lead reports whether a physical lead vehicle is present in the
	// ego lane and, if so, its position and speed.
	Lead() (present bool, pos, vel float64)
}

// NoTraffic is a TrafficModel with an empty road.
type NoTraffic struct{}

// Step implements TrafficModel.
func (NoTraffic) Step(float64, time.Duration) {}

// Lead implements TrafficModel.
func (NoTraffic) Lead() (bool, float64, float64) { return false, 0, 0 }

// Config assembles a bench.
type Config struct {
	// DB is the signal database; defaults to sigdb.Vehicle().
	DB *sigdb.DB
	// Tick is the co-simulation step; defaults to sigdb.FastPeriod.
	Tick time.Duration
	// JitterProb is the per-emission probability that a slow frame
	// slips one tick (Section V.C.1's "five faster updates").
	JitterProb float64
	// Seed seeds all stochastic bench components.
	Seed int64
	// TypeChecking enables the injection interface's strong data-type
	// bounds checking (on for the HIL bench, off for a real vehicle).
	TypeChecking bool
	// VelocityNoise is the standard deviation of the wheel-speed sensor
	// noise in m/s (zero on the HIL, non-zero on the real vehicle).
	VelocityNoise float64

	// Ego is the plant; defaults to a standard sedan at rest.
	Ego *vehicle.Ego
	// Traffic scripts the surrounding vehicles; defaults to NoTraffic.
	Traffic TrafficModel
	// RadarCfg configures the forward sensor; nil means a noiseless
	// HIL-grade radar. Noise and dropouts draw from the bench's seeded
	// random source.
	RadarCfg *vehicle.RadarConfig
	// Grade is the road profile; defaults to a flat road.
	Grade vehicle.GradeProfile
	// Driver scripts the driver; required.
	Driver DriverModel
	// Feature is the controller under test; defaults to a fresh FSRACC
	// with default configuration.
	Feature *fsracc.Controller
}

// Bench is the assembled testbench.
type Bench struct {
	db       *sigdb.DB
	tick     time.Duration
	typeChk  bool
	velNoise float64
	rng      *rand.Rand

	ego     *vehicle.Ego
	traffic TrafficModel
	radar   *vehicle.Radar
	grade   vehicle.GradeProfile
	driver  DriverModel
	feature *fsracc.Controller

	bus   *can.Bus
	sched *can.TxSchedule
	slots benchSlots

	// The injection multiplexors, indexed by bus slot: injected[i]
	// enables the override of signal i with injectVal[i].
	injected  []bool
	injectVal []float64

	step          int
	appliedTorque float64
	lastOut       fsracc.Outputs
}

// benchSlots are the bus slots of the fifteen FSRACC signals the bench
// publishes and reads every tick, resolved once in New.
type benchSlots struct {
	// Inputs, published by the sensor and command nodes.
	velocity, accelPedPos, brakePedPres, accSetSpeed, throtPos int
	vehicleAhead, targetRange, targetRelVel, selHeadway        int
	// Outputs, published by the feature.
	accEnabled, brakeRequested, torqueRequested int
	requestedTorque, requestedDecel, serviceACC int
}

// resolveSlots binds every bench signal to its bus slot, failing on the
// first signal the database does not define.
func resolveSlots(bus *can.Bus) (benchSlots, error) {
	var s benchSlots
	for _, sig := range [...]struct {
		name string
		slot *int
	}{
		{sigdb.SigVelocity, &s.velocity},
		{sigdb.SigAccelPedPos, &s.accelPedPos},
		{sigdb.SigBrakePedPres, &s.brakePedPres},
		{sigdb.SigACCSetSpeed, &s.accSetSpeed},
		{sigdb.SigThrotPos, &s.throtPos},
		{sigdb.SigVehicleAhead, &s.vehicleAhead},
		{sigdb.SigTargetRange, &s.targetRange},
		{sigdb.SigTargetRelVel, &s.targetRelVel},
		{sigdb.SigSelHeadway, &s.selHeadway},
		{sigdb.SigACCEnabled, &s.accEnabled},
		{sigdb.SigBrakeRequested, &s.brakeRequested},
		{sigdb.SigTorqueRequested, &s.torqueRequested},
		{sigdb.SigRequestedTorque, &s.requestedTorque},
		{sigdb.SigRequestedDecel, &s.requestedDecel},
		{sigdb.SigServiceACC, &s.serviceACC},
	} {
		i, ok := bus.Slot(sig.name)
		if !ok {
			return s, fmt.Errorf("hil: signal database lacks bench signal %q", sig.name)
		}
		*sig.slot = i
	}
	return s, nil
}

// New assembles a bench from the configuration. The database must
// define every FSRACC input and output signal.
func New(cfg Config) (*Bench, error) {
	if cfg.Driver == nil {
		return nil, errors.New("hil: config requires a Driver")
	}
	if cfg.DB == nil {
		cfg.DB = sigdb.Vehicle()
	}
	if cfg.Tick <= 0 {
		cfg.Tick = sigdb.FastPeriod
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Ego == nil {
		cfg.Ego = vehicle.NewEgo(vehicle.DefaultEgoConfig(), 0)
	}
	if cfg.Traffic == nil {
		cfg.Traffic = NoTraffic{}
	}
	radarCfg := vehicle.DefaultRadarConfig()
	if cfg.RadarCfg != nil {
		radarCfg = *cfg.RadarCfg
	}
	if cfg.Grade == nil {
		cfg.Grade = vehicle.FlatRoad
	}
	if cfg.Feature == nil {
		cfg.Feature = fsracc.New(fsracc.DefaultConfig())
	}
	sched, err := can.NewTxSchedule(cfg.DB, cfg.Tick, cfg.JitterProb, rng)
	if err != nil {
		return nil, fmt.Errorf("hil: %w", err)
	}
	bus := can.NewBus(cfg.DB, sched)
	slots, err := resolveSlots(bus)
	if err != nil {
		return nil, err
	}
	nsig := len(cfg.DB.SignalNames())
	return &Bench{
		db:        cfg.DB,
		tick:      cfg.Tick,
		typeChk:   cfg.TypeChecking,
		velNoise:  cfg.VelocityNoise,
		rng:       rng,
		ego:       cfg.Ego,
		traffic:   cfg.Traffic,
		radar:     vehicle.NewRadar(radarCfg, rng),
		grade:     cfg.Grade,
		driver:    cfg.Driver,
		feature:   cfg.Feature,
		bus:       bus,
		sched:     sched,
		slots:     slots,
		injected:  make([]bool, nsig),
		injectVal: make([]float64, nsig),
	}, nil
}

// Now returns the current scenario time.
func (b *Bench) Now() time.Duration { return time.Duration(b.step) * b.tick }

// Tick returns the co-simulation step size.
func (b *Bench) Tick() time.Duration { return b.tick }

// Log returns the trace capture: the full bus frame log.
func (b *Bench) Log() *can.Log { return b.bus.Log() }

// Ego returns the plant, for scenario assertions.
func (b *Bench) Ego() *vehicle.Ego { return b.ego }

// Feature returns the controller under test. Campaigns use it only for
// the intent-approximation ground truth; the monitor never touches it.
func (b *Bench) Feature() *fsracc.Controller { return b.feature }

// BusValue returns the latched broadcast value of a signal, as any node
// on the network currently observes it.
func (b *Bench) BusValue(name string) (float64, error) {
	return b.bus.Read(name)
}

// SetInjection enables the multiplexor for one FSRACC input signal,
// replacing what the feature sees with value. When type checking is on,
// values not representable in the signal's declared type are rejected
// with an error, exactly as ControlDesk rejected them on the bench.
func (b *Bench) SetInjection(name string, value float64) error {
	sig, ok := b.db.Signal(name)
	if !ok {
		return fmt.Errorf("hil: injection into unknown signal %q", name)
	}
	if !isFSRACCInput(name) {
		return fmt.Errorf("hil: signal %q is not an FSRACC input", name)
	}
	if b.typeChk {
		if err := sig.CheckValue(value); err != nil {
			return fmt.Errorf("hil: %w", err)
		}
	}
	i, _ := b.bus.Slot(name) // every FSRACC input resolved in New
	b.injected[i], b.injectVal[i] = true, value
	return nil
}

// ClearInjection disables the multiplexor for one signal, passing the
// genuine network value through again.
func (b *Bench) ClearInjection(name string) {
	if i, ok := b.bus.Slot(name); ok {
		b.injected[i] = false
	}
}

// ClearAllInjections disables every multiplexor.
func (b *Bench) ClearAllInjections() {
	clear(b.injected)
}

func isFSRACCInput(name string) bool {
	for _, n := range sigdb.FSRACCInputs() {
		if n == name {
			return true
		}
	}
	return false
}

// readInput reads the feature input at bus slot i: the latched bus
// value, overridden by the injection multiplexor when enabled.
func (b *Bench) readInput(i int) float64 {
	if b.injected[i] {
		return b.injectVal[i]
	}
	return b.bus.ReadSlot(i)
}

// Step advances the co-simulation by one tick.
func (b *Bench) Step() error {
	now := b.Now()
	dt := b.tick.Seconds()

	// 1. World: traffic, radar, driver.
	b.traffic.Step(dt, now)
	present, leadPos, leadVel := b.traffic.Lead()
	obs := b.radar.Observe(b.tick, b.ego.Position(), b.ego.Speed(), present, leadPos, leadVel)
	cmd := b.driver.Commands(now)

	// 2. Sensor and command nodes publish onto the bus.
	vel := b.ego.Speed()
	if b.velNoise > 0 {
		vel += b.rng.NormFloat64() * b.velNoise
		if vel < 0 {
			vel = 0
		}
	}
	throt := 0.0
	if max := b.ego.Config().MaxEngineTorque; max > 0 {
		throt = 100 * clamp(b.appliedTorque/max, 0, 1)
	}
	// Publish through the slots resolved in New — this runs every tick
	// of every campaign scenario, so no name is hashed here.
	s := &b.slots
	b.bus.SetSlot(s.velocity, vel)
	b.bus.SetSlot(s.throtPos, throt)
	b.bus.SetSlot(s.accelPedPos, cmd.AccelPedPos)
	b.bus.SetSlot(s.brakePedPres, cmd.BrakePedPres)
	b.bus.SetSlot(s.accSetSpeed, cmd.ACCSetSpeed)
	b.bus.SetSlot(s.selHeadway, cmd.SelHeadway)
	b.bus.SetSlot(s.targetRange, obs.Range)
	b.bus.SetSlot(s.targetRelVel, obs.RelVel)
	b.bus.SetSlot(s.vehicleAhead, boolToF(obs.Ahead))

	// 3. Bus transmits the frames due this tick (including the feature
	// outputs computed last tick, which models ECU pipeline latency).
	if err := b.bus.Step(now); err != nil {
		return err
	}

	// 4. The feature reads its inputs from the network through the
	// injection multiplexors and executes one control cycle.
	in := fsracc.Inputs{
		Velocity:     b.readInput(s.velocity),
		AccelPedPos:  b.readInput(s.accelPedPos),
		BrakePedPres: b.readInput(s.brakePedPres),
		ACCSetSpeed:  b.readInput(s.accSetSpeed),
		ThrotPos:     b.readInput(s.throtPos),
		VehicleAhead: b.readInput(s.vehicleAhead) != 0,
		TargetRange:  b.readInput(s.targetRange),
		TargetRelVel: b.readInput(s.targetRelVel),
		SelHeadway:   b.readInput(s.selHeadway),
	}
	out := b.feature.Step(dt, in)
	b.lastOut = out
	b.bus.SetSlot(s.accEnabled, boolToF(out.ACCEnabled))
	b.bus.SetSlot(s.brakeRequested, boolToF(out.BrakeRequested))
	b.bus.SetSlot(s.torqueRequested, boolToF(out.TorqueRequested))
	b.bus.SetSlot(s.requestedTorque, out.RequestedTorque)
	b.bus.SetSlot(s.requestedDecel, out.RequestedDecel)
	b.bus.SetSlot(s.serviceACC, boolToF(out.ServiceACC))

	// 5. Actuation ECUs apply the feature's requests from the network
	// (latched, so one tick behind) plus the driver's pedals. Unlike
	// the feature, production engine and brake controllers sanitize
	// their actuation commands.
	torque, decel := b.actuation(cmd)
	b.appliedTorque = torque
	b.ego.Step(dt, torque, decel, b.grade(b.ego.Position()))

	b.step++
	return nil
}

// actuation derives the applied engine torque and brake deceleration
// from the broadcast feature outputs and the driver pedals.
func (b *Bench) actuation(cmd DriverCommands) (torque, decel float64) {
	s, bus := &b.slots, b.bus
	enabled := bus.ReadSlot(s.accEnabled) != 0
	if enabled && bus.ReadSlot(s.torqueRequested) != 0 {
		if t := bus.ReadSlot(s.requestedTorque); isFiniteF(t) && t > 0 {
			torque = t
		}
	}
	if enabled && bus.ReadSlot(s.brakeRequested) != 0 {
		if d := bus.ReadSlot(s.requestedDecel); isFiniteF(d) && d < 0 {
			decel = -d
		}
	}
	// Driver pedals act in parallel (and dominate by magnitude).
	if p := cmd.AccelPedPos; p > 0 && isFiniteF(p) {
		driverTorque := clamp(p, 0, 100) / 100 * b.ego.Config().MaxEngineTorque
		if driverTorque > torque {
			torque = driverTorque
		}
	}
	if p := cmd.BrakePedPres; p > 0 && isFiniteF(p) {
		driverDecel := clamp(p*0.3, 0, b.ego.Config().MaxBrakeDecel)
		if driverDecel > decel {
			decel = driverDecel
		}
	}
	return torque, decel
}

// Run advances the bench until d has elapsed, invoking onTick (when not
// nil) before every step. Campaign scripts use the hook to drive the
// injection multiplexors, mirroring the paper's rtplib scripting.
//
// Run first reserves log room up to d (see Reserve), so the capture
// never regrows mid-run.
func (b *Bench) Run(d time.Duration, onTick func(t time.Duration, b *Bench) error) error {
	b.Reserve(d)
	for b.Now() < d {
		if onTick != nil {
			if err := onTick(b.Now(), b); err != nil {
				return err
			}
		}
		if err := b.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Reserve grows the capture log for every frame the transmit schedule
// can emit from now until d.
func (b *Bench) Reserve(d time.Duration) {
	b.bus.Log().Grow(b.sched.MaxFrames(d - b.Now()))
}

func boolToF(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func isFiniteF(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
