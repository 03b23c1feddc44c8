package stream

import "time"

// Config tunes the adaptive controller. Zero values select defaults.
type Config struct {
	// Target is the end-to-end micro-batch commit latency the controller
	// steers toward. Zero defaults to 2s.
	Target time.Duration
	// MinBatch/MaxBatch clamp the records-per-micro-batch hint. Zeros
	// default to 16 and 2048. A commit holds its whole batch in memory at
	// once, several times over while the warehouse reads, groups and joins
	// it, so MaxBatch is what bounds a saturated stream's footprint: a
	// latency target alone lets a cheap commit grow the batch until the
	// commit is as slow as the target allows.
	MinBatch int
	MaxBatch int
	// InitialBatch seeds the hint before any observation. Zero defaults to
	// 64 (clamped into [MinBatch, MaxBatch]).
	InitialBatch int
	// Alpha is the EWMA smoothing factor for observed latency, in (0, 1].
	// Larger reacts faster, smaller damps noise harder. Zero defaults to 0.3.
	Alpha float64
	// Deadband is the fractional hysteresis band around Target inside which
	// the controller holds instead of chasing noise. Zero defaults to 0.15
	// (i.e. hold while smoothed latency is within ±15% of target).
	Deadband float64
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 2 * time.Second
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 2048
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.InitialBatch <= 0 {
		c.InitialBatch = 64
	}
	if c.InitialBatch < c.MinBatch {
		c.InitialBatch = c.MinBatch
	}
	if c.InitialBatch > c.MaxBatch {
		c.InitialBatch = c.MaxBatch
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.15
	}
	return c
}

// Action classifies a controller decision.
type Action uint8

// Controller decisions: hold the current batch size, grow it, or shrink it.
const (
	ActionHold Action = iota
	ActionGrow
	ActionShrink
)

// String returns the metric-label spelling of the action.
func (a Action) String() string {
	switch a {
	case ActionGrow:
		return "grow"
	case ActionShrink:
		return "shrink"
	default:
		return "hold"
	}
}

// ewma is an exponentially weighted moving average. The zero value is
// unseeded: the first observation becomes the average outright, so start-up
// transients are not dragged toward zero.
type ewma struct {
	v      float64
	seeded bool
}

// observe folds one sample in with smoothing factor alpha in (0, 1] and
// returns the updated average.
func (e *ewma) observe(alpha, x float64) float64 {
	if !e.seeded {
		e.v = x
		e.seeded = true
		return e.v
	}
	e.v += alpha * (x - e.v)
	return e.v
}

// stepToTarget is the damped multiplicative-adjust law: when the smoothed
// observation sits outside the fractional deadband around target, cur is
// scaled by target/smoothed — clamped to [1/2, 3/2] per step so one outlier
// cannot collapse or explode the knob — then clamped to [min, max]. A step
// is guaranteed to make progress (integer truncation cannot stall it), and
// a step pinned at a clamp reports ActionHold. Grow means the observation is
// below target (the knob can afford to increase); shrink means above.
func stepToTarget(cur int, smoothed, target, deadband float64, min, max int) (int, Action) {
	action := ActionHold
	switch {
	case smoothed > target*(1+deadband):
		action = ActionShrink
	case smoothed < target*(1-deadband):
		action = ActionGrow
	}
	if action == ActionHold {
		return cur, ActionHold
	}
	ratio := target / smoothed
	if ratio < 0.5 {
		ratio = 0.5
	}
	if ratio > 1.5 {
		ratio = 1.5
	}
	next := int(float64(cur) * ratio)
	// Guarantee progress: a ratio step on a tiny knob can truncate to the
	// same value and stall short of the target.
	if action == ActionGrow && next <= cur {
		next = cur + 1
	}
	if action == ActionShrink && next >= cur {
		next = cur - 1
	}
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	if next == cur {
		action = ActionHold // pinned at a clamp
	}
	return next, action
}

// Decision is the controller's current preferred micro-batch size.
type Decision struct {
	Action    Action
	BatchRows int // preferred records per micro-batch (the client frame hint)
	// Dominant names the pipeline stage with the largest smoothed share of
	// commit latency ("spool", "upload", "copy", "apply", "checkpoint"), so a
	// grow/shrink decision is attributable to the stage driving it. Empty
	// until a stage breakdown has been observed.
	Dominant string
}

// Stages splits one micro-batch's commit latency into its pipeline stages,
// as measured by the streaming job. Zero fields are unobserved.
type Stages struct {
	Spool      time.Duration // delta decode + staging-file append
	Upload     time.Duration // object-store upload of the batch's spool
	Copy       time.Duration // COPY of the spool object into the work table
	Apply      time.Duration // merge/DML application to the target table
	Checkpoint time.Duration // watermark checkpoint write
}

// stageNames index the controller's per-stage EWMA array.
var stageNames = [...]string{"spool", "upload", "copy", "apply", "checkpoint"}

func (s Stages) seconds() [len(stageNames)]float64 {
	return [len(stageNames)]float64{
		s.Spool.Seconds(), s.Upload.Seconds(), s.Copy.Seconds(),
		s.Apply.Seconds(), s.Checkpoint.Seconds(),
	}
}

// Stats counts controller decisions since construction.
type Stats struct {
	Grows   uint64
	Shrinks uint64
	Holds   uint64
}

// Controller is the adaptive micro-batch sizer. It is a pure unit: it never
// reads the clock — the caller measures each batch's commit latency and
// feeds it to Observe, which returns the size of the next batch. It is
// not safe for concurrent use; the streaming job serializes batch commits.
//
// The control law is stepToTarget — a damped multiplicative-adjust
// loop: smoothed latency outside the deadband moves the batch size by the
// ratio target/latency, clamped to [1/2, 3/2] per step so a single outlier
// cannot collapse or explode the batch, then clamped to [MinBatch,
// MaxBatch]. Commit latency grows monotonically with batch size (fixed
// per-batch overhead plus per-row cost), so the ratio step contracts toward
// the fixed point where latency sits inside the band, and the deadband
// stops it from oscillating around the target on noisy measurements.
type Controller struct {
	cfg Config

	batch int
	lat   ewma // smoothed commit latency, seconds

	stageSec    [len(stageNames)]ewma // smoothed per-stage latency, seconds
	stageSeeded bool

	stats Stats
}

// NewController builds a controller steering toward cfg.Target.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, batch: cfg.InitialBatch}
}

// Target reports the configured latency target after defaulting.
func (c *Controller) Target() time.Duration { return c.cfg.Target }

// Stats returns decision counts since construction.
func (c *Controller) Stats() Stats { return c.stats }

// Hint returns the current batch size without recording an observation.
func (c *Controller) Hint() Decision {
	return Decision{Action: ActionHold, BatchRows: c.batch}
}

// Observe records one committed micro-batch (rows records, end-to-end
// commit latency) and returns the size of the next batch. bytes is ignored;
// it is kept for callers that still report raw payload size.
func (c *Controller) Observe(rows, bytes int, latency time.Duration) Decision {
	return c.ObserveStages(rows, bytes, latency, Stages{})
}

// StageEWMA returns the smoothed per-stage latency breakdown, keyed by stage
// name. Nil until a stage breakdown has been observed.
func (c *Controller) StageEWMA() map[string]time.Duration {
	if !c.stageSeeded {
		return nil
	}
	out := make(map[string]time.Duration, len(stageNames))
	for i, name := range stageNames {
		out[name] = time.Duration(c.stageSec[i].v * float64(time.Second))
	}
	return out
}

// dominant names the stage with the largest smoothed latency share.
func (c *Controller) dominant() string {
	if !c.stageSeeded {
		return ""
	}
	best, bestSec := "", 0.0
	for i, name := range stageNames {
		if c.stageSec[i].v > bestSec {
			best, bestSec = name, c.stageSec[i].v
		}
	}
	return best
}

// ObserveStages is Observe with a per-stage latency breakdown attached, so
// the decision reports which stage dominates the commit path. A zero Stages
// leaves the attribution state untouched.
func (c *Controller) ObserveStages(rows, bytes int, latency time.Duration, st Stages) Decision {
	if st != (Stages{}) {
		sec := st.seconds()
		for i := range sec {
			c.stageSec[i].observe(c.cfg.Alpha, sec[i])
		}
		c.stageSeeded = true
	}
	if rows <= 0 || latency <= 0 {
		d := c.Hint()
		d.Dominant = c.dominant()
		c.stats.Holds++
		return d
	}
	smoothed := c.lat.observe(c.cfg.Alpha, latency.Seconds())

	var action Action
	c.batch, action = stepToTarget(c.batch, smoothed, c.cfg.Target.Seconds(), c.cfg.Deadband,
		c.cfg.MinBatch, c.cfg.MaxBatch)
	switch action {
	case ActionGrow:
		c.stats.Grows++
	case ActionShrink:
		c.stats.Shrinks++
	default:
		c.stats.Holds++
	}
	return Decision{Action: action, BatchRows: c.batch, Dominant: c.dominant()}
}
