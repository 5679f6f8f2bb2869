// Package chaos is the run-lifecycle fault-injection harness (DESIGN.md
// §11): it arms deliberate defects — wrong-answer faults and kernel
// panics — at chosen rounds, cancels runs at chosen round boundaries, and
// corrupts or truncates checkpoint bytes, then asserts the robustness
// machinery holds: the conformance oracle catches every armed wrong-answer
// defect, a panicking cell fails alone (with its deterministic task seed)
// while the campaign around it completes, cancellation never tears a
// Result, and no corrupt checkpoint is ever accepted.
//
// The package provides the scenario vocabulary and runners; the batteries
// themselves live in its tests and run in CI's chaos job under the race
// detector.
package chaos
