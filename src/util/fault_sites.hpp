#pragma once

// Canonical registry of fault-injection site names. Every string passed to
// CPLA_FAULT_POINT(...) in library code must be declared here, and every
// site a test arms must exist in library code — `tools/cpla_lint.py`
// cross-checks all three directions (checks `fault-site-undeclared`,
// `fault-site-unused`, `fault-site-unknown-arm`), so a renamed or deleted
// site cannot silently leave tests arming dead strings.
//
// To add a site:
//   1. declare the name below and append it to kAll,
//   2. place CPLA_FAULT_POINT("the.name") at the failure origin in src,
//   3. arm it from a test (FaultInjector::instance().arm(...)) and assert
//      the degradation ladder holds.

#include <cstddef>

namespace cpla::fault_sites {

// la: dense linear algebra failure origins.
inline constexpr char kLaCholeskyFactor[] = "la.cholesky.factor";

// sdp: interior-point solver failure origins.
inline constexpr char kSdpSolveNumerical[] = "sdp.solve.numerical";
inline constexpr char kSdpSolveIterlimit[] = "sdp.solve.iterlimit";

// core: solve-guard escalation triggers.
inline constexpr char kSolveGuardDeadline[] = "solve_guard.deadline";

// lagr: a failed Lagrangian partition solve (incumbent pick comes back
// with kNumericalFailure; the guard escalates to the cross-backend SDP
// retry tier).
inline constexpr char kLagrSolve[] = "lagr.solve";

// eco: incremental-resolve degradation triggers (EcoSession falls back to
// full_resolve() when either fires).
inline constexpr char kEcoCacheLookup[] = "eco.cache.lookup";
inline constexpr char kEcoResolvePartition[] = "eco.resolve.partition";

// serve: durability failure origins of the ECO service. A fired journal
// site simulates a torn/short append or a failed fsync (the service
// degrades to read-only, never corrupts the on-disk journal prefix); a
// fired checkpoint site skips the checkpoint (recovery replays a longer
// journal suffix instead).
inline constexpr char kServeJournalAppend[] = "serve.journal.append";
inline constexpr char kServeJournalFsync[] = "serve.journal.fsync";
inline constexpr char kServeCheckpointWrite[] = "serve.checkpoint.write";

inline constexpr const char* kAll[] = {
    kLaCholeskyFactor,
    kSdpSolveNumerical,
    kSdpSolveIterlimit,
    kSolveGuardDeadline,
    kLagrSolve,
    kEcoCacheLookup,
    kEcoResolvePartition,
    kServeJournalAppend,
    kServeJournalFsync,
    kServeCheckpointWrite,
};

inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);

}  // namespace cpla::fault_sites
