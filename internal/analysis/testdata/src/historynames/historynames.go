// Package historynames seeds catalog violations against history-shaped
// metric names, under a catalog of its own. The test's catalog
// registers exactly: metrics "history.appends" and
// "history.gate.regressions".
package historynames

import "repro/internal/telemetry"

// Registered emits through a counter and a gauge, each under a
// registered name; never flagged.
func Registered() {
	telemetry.GetCounter("history.appends").Inc()
	telemetry.GetGauge("history.gate.regressions").Set(0)
}

// UnregisteredCounter counts appends under a name the catalog has
// never heard of — the drift the audit exists to catch: a phantom
// history.* metric would ship a snapshot name the regression gate
// and CI smoke never learn to read.
func UnregisteredCounter() {
	telemetry.GetCounter("history.phantom_appends").Inc() // want `metric name "history.phantom_appends" is not registered`
}

// UnregisteredGauge proves the gauge constructor is audited for the
// gate's family too.
func UnregisteredGauge() {
	telemetry.GetGauge("history.gate.ghosts").Set(1) // want `metric name "history.gate.ghosts" is not registered`
}

// BadCharset uses a name outside the [a-z0-9_.] alphabet.
func BadCharset() {
	telemetry.GetCounter("History-Appends").Inc() // want `must match`
}

// Dynamic passes a parameter through: unauditable.
func Dynamic(name string) {
	telemetry.GetCounter(name).Inc() // want `must be a string literal`
}
