package server

import "dyncontract/internal/telemetry"

// Server-level metric names (the per-route request metrics use
// telemetry.InstrumentHandler's dyncontract_http_* scheme on top of these).
const (
	// metricSessions is the number of live sessions.
	metricSessions = "dyncontract_server_sessions"
	// metricRoundQueueDepth is the summed command-queue occupancy across
	// sessions — the backpressure dial.
	metricRoundQueueDepth = "dyncontract_server_round_queue_depth"
	// metricInFlight counts admitted-but-unanswered requests across all
	// sessions (queued or executing).
	metricInFlight = "dyncontract_server_inflight"
	// metricRejected counts requests turned away by backpressure (full
	// queue, in-flight cap, or draining).
	metricRejected = "dyncontract_server_rejected_total"
	// metricRounds / metricDrifts count successfully applied commands.
	metricRounds = "dyncontract_server_rounds_total"
	metricDrifts = "dyncontract_server_drifts_total"
	// metricSessionQueueDepth is the commands sitting in session queues
	// right now; metricSessionQueueWait histograms how long each one sat
	// before the writer picked it up. Depth says the queues are backed up;
	// wait says what that costs a request.
	metricSessionQueueDepth = "dyncontract_server_session_queue_depth"
	metricSessionQueueWait  = "dyncontract_server_session_queue_wait_seconds"
)

// queue-wait histogram layout: 10ms bins over [0, 2.5s), matching the
// HTTP latency layout so queue wait reads on the same scale as total
// request latency.
const (
	queueWaitLo   = 0
	queueWaitHi   = 2.5
	queueWaitBins = 250
)

// serverMetrics resolves the server's metric handles once. The nil
// serverMetrics is fully operational as a no-op (telemetry's nil-is-off
// rule), so an un-instrumented Server costs nothing.
type serverMetrics struct {
	sessions   *telemetry.Gauge
	roundQueue *telemetry.Gauge
	inFlight   *telemetry.Gauge
	rejected   *telemetry.Counter
	rounds     *telemetry.Counter
	drifts     *telemetry.Counter
	queueDepth *telemetry.Gauge
	queueWaitH *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		sessions:   reg.Gauge(metricSessions),
		roundQueue: reg.Gauge(metricRoundQueueDepth),
		inFlight:   reg.Gauge(metricInFlight),
		rejected:   reg.Counter(metricRejected),
		rounds:     reg.Counter(metricRounds),
		drifts:     reg.Counter(metricDrifts),
		queueDepth: reg.Gauge(metricSessionQueueDepth),
		queueWaitH: reg.Histogram(metricSessionQueueWait, queueWaitLo, queueWaitHi, queueWaitBins),
	}
}

func (m *serverMetrics) addSessions(d float64) {
	if m != nil {
		m.sessions.Add(d)
	}
}

func (m *serverMetrics) addRoundQueue(d float64) {
	if m != nil {
		m.roundQueue.Add(d)
	}
}

func (m *serverMetrics) addInFlight(d float64) {
	if m != nil {
		m.inFlight.Add(d)
	}
}

func (m *serverMetrics) reject() {
	if m != nil {
		m.rejected.Inc()
	}
}

func (m *serverMetrics) roundDone() {
	if m != nil {
		m.rounds.Inc()
	}
}

func (m *serverMetrics) driftDone() {
	if m != nil {
		m.drifts.Inc()
	}
}

func (m *serverMetrics) addSessionQueue(d float64) {
	if m != nil {
		m.queueDepth.Add(d)
	}
}

// queueWait records how long a command waited in its session queue; label
// is the trace ID of the waiting request (exemplar, empty when untraced).
func (m *serverMetrics) queueWait(seconds float64, label string) {
	if m != nil {
		m.queueWaitH.ObserveExemplar(seconds, label)
	}
}
