package experiments

import (
	"fmt"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/netsim"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Runtime invariant audit: cheap cross-checks of the simulator's global
// accounting. runCell runs them on every drained robustness cell (the
// availability, overload and replica sweeps), so a bookkeeping regression
// fails the sweep loudly instead of quietly skewing a figure. They run at
// drain points rather than per event, so they cost almost nothing.
//
// The checks:
//
//   - query conservation including shed work: submitted = completed +
//     lost + shed, all non-negative, with no orphaned query left;
//   - the network can refuse offered traffic but never carry traffic
//     nobody offered: OfferedBytes >= CarriedBytes (both cumulative,
//     unaffected by ResetStats);
//   - the event engine's cached live count equals a from-scratch recount
//     of its arena, heap/arena occupancy agree (sim.AuditInvariants), and
//     no event is left;
//   - hedge accounting (replicated runs): every launched hedge terminates
//     as exactly one win or one wasted duplicate, hedges = wins + wasted;
//   - the cluster's record pools: every query, sub-query and attempt
//     record is back on its free list, none leaked and none freed twice
//     (cluster.AuditPools);
//   - last-replica reachability (replicated runs): the applied active set
//     leaves every partition with a reachable replica
//     (consolidate.StrandedPartitions returns none).

// auditRun asserts the invariant set for one simulation cell after
// eng.RunAll() has drained it.
func auditRun(eng *sim.Engine, net *netsim.Network, cl *cluster.Cluster) error {
	st := cl.Stats()
	// Query conservation (incl. shed).
	if st.QueriesSubmitted < 0 || st.Queries < 0 || st.QueriesLost < 0 || st.QueriesShed < 0 {
		return fmt.Errorf("audit: negative query counter: %+v", st)
	}
	if sum := st.Queries + st.QueriesLost + st.QueriesShed; sum > st.QueriesSubmitted {
		return fmt.Errorf("audit: conservation violated: completed %d + lost %d + shed %d > submitted %d",
			st.Queries, st.QueriesLost, st.QueriesShed, st.QueriesSubmitted)
	}
	if o := st.Orphans(); o != 0 {
		return fmt.Errorf("audit: %d orphaned queries after drain (submitted %d, completed %d, lost %d, shed %d)",
			o, st.QueriesSubmitted, st.Queries, st.QueriesLost, st.QueriesShed)
	}
	// Offered vs carried link bytes.
	if net.OfferedBytes < net.CarriedBytes {
		return fmt.Errorf("audit: carried bytes %d exceed offered bytes %d", net.CarriedBytes, net.OfferedBytes)
	}
	if net.OfferedBytes < 0 || net.CarriedBytes < 0 {
		return fmt.Errorf("audit: negative byte counter (offered %d, carried %d)", net.OfferedBytes, net.CarriedBytes)
	}
	// Hedge accounting: wins and waste are terminal states, so they can
	// never exceed launches, and after a drain every hedge has reached one.
	if st.Hedges < 0 || st.HedgeWins < 0 || st.HedgeWasted < 0 {
		return fmt.Errorf("audit: negative hedge counter: hedges %d, wins %d, wasted %d",
			st.Hedges, st.HedgeWins, st.HedgeWasted)
	}
	if st.HedgeWins+st.HedgeWasted > st.Hedges {
		return fmt.Errorf("audit: hedge terminations %d+%d exceed launches %d",
			st.HedgeWins, st.HedgeWasted, st.Hedges)
	}
	if st.Hedges != st.HedgeWins+st.HedgeWasted {
		return fmt.Errorf("audit: hedge identity violated after drain: %d launched != %d wins + %d wasted",
			st.Hedges, st.HedgeWins, st.HedgeWasted)
	}
	if err := cl.AuditPools(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// Engine bookkeeping.
	if err := eng.AuditInvariants(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if eng.Len() != 0 {
		return fmt.Errorf("audit: %d live events after drain", eng.Len())
	}
	return nil
}

// auditReplicaReachability asserts the planner invariant for replicated
// runs: the active set the controller applied leaves every partition with
// at least one reachable replica. parts is the cluster's PartitionHosts
// view; pass the set actually installed on the network so emergency
// expansions and transitions are audited as-applied.
func auditReplicaReachability(net *netsim.Network, parts [][]topology.NodeID) error {
	if len(parts) == 0 {
		return nil
	}
	if stranded := consolidate.StrandedPartitions(net.Graph(), net.Active(), parts); len(stranded) > 0 {
		return fmt.Errorf("audit: partitions %v stranded by the active set (no reachable replica)", stranded)
	}
	return nil
}
