// Package telemetrynames seeds catalog violations against the real
// telemetry API. The test's catalog registers exactly:
// metric "registered.name" and metric prefix "cache.".
package telemetrynames

import "repro/internal/telemetry"

// Registered uses only cataloged literals; never flagged.
func Registered() {
	telemetry.GetCounter("registered.name").Add(1)
}

// Unregistered uses a well-formed literal the catalog has never heard
// of.
func Unregistered() {
	telemetry.GetCounter("phantom.metric").Add(1) // want `metric name "phantom.metric" is not registered`
}

// UnregisteredStage declares a stage under a name the catalog has
// never heard of.
var UnregisteredStage = telemetry.NewStage("phantom.stage") // want `metric name "phantom.stage" is not registered`

// BadCharset uses a name outside the [a-z0-9_.] alphabet.
func BadCharset() {
	telemetry.GetGauge("Bad-Name").Set(0) // want `must match`
}

// Dynamic passes a parameter through: unauditable.
func Dynamic(name string) {
	telemetry.GetHistogram(name).Observe(1) // want `must be a string literal`
}

// PrefixRegistered builds a name in a registered dynamic family.
func PrefixRegistered(layer string) {
	telemetry.GetCounter("cache." + layer + ".hits").Add(1)
}

// PrefixUnregistered builds a name in an unknown family.
func PrefixUnregistered(layer string) {
	telemetry.GetCounter("rogue." + layer).Add(1) // want `name family "rogue."\* is not registered`
}

// LocalVar resolves through a variable whose assignments are all
// literal; both alternates are cataloged, so nothing fires.
func LocalVar(drop bool) {
	name := "registered.name"
	if drop {
		name = "cache.drops"
	}
	telemetry.GetCounter(name).Inc()
}

// UnregisteredSeries declares a convergence series under a name the
// catalog has never heard of.
var UnregisteredSeries = telemetry.GetSeries("phantom.series", "GHz") // want `metric name "phantom.series" is not registered`
