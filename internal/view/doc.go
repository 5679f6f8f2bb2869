// Package view implements the robots' restricted local vision.
//
// In the paper each robot sees only the subchain of its next V = 11 chain
// neighbours in both directions (the "viewing path length"), as relative
// positions, plus the run states those neighbours carry (run-state
// visibility along the chain is what the paper's termination condition
// "it can see the next sequent run in front of it" relies on).
//
// A Snapshot is a window onto the chain centred at one robot. It engineers
// the locality discipline: any attempt to look past the viewing path length
// panics, so unit tests immediately catch rules that are not local.
// Snapshots expose relative positions only; absolute coordinates and robot
// identities are not part of the observable interface used by decision
// rules (the Robot accessor exists solely for the engine's bookkeeping of
// run ownership, which stands in for a robot tracking a neighbour one step
// away — see DESIGN.md §3.5).
//
// A Snapshot reads three ring-indexed tables shared by every view of one
// look phase: the handle order (chain.Handles), the edge cache
// (chain.Edges) and a run-direction table of one byte per robot, RunPlus
// for a visible run moving towards increasing chain index and RunMinus
// for the other direction (a nil table means no runs anywhere). Every
// window read is one array load behind the locality check. The engine
// rebuilds its run table at the start of each decide phase, leaving out
// runs started in the current round; the conformance oracle builds the
// same tables from its own pointer ring, so both evaluate one set of
// predicates over one Snapshot type.
package view
