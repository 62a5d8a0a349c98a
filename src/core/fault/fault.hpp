#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pyblaz::fault {

/// Deterministic fault injection — every failure path in the runtime is
/// reachable, on demand, reproducibly.
///
/// The runtime is sprinkled with *named fault sites*: a site is a call to
/// point()/corrupt() at the place where a real-world failure would land
/// (reading archive bytes, allocating the decode buffers, running a
/// scheduler chunk).  Sites cost one relaxed atomic load when nothing is
/// armed, so they stay compiled into release builds — CI and tests arm them
/// via the environment or arm().
///
/// Arming — `CC_FAULT` (read once, at first use) or arm():
///
///   CC_FAULT=<site>:<action>[,<key>=<value>]...[;<site>:<action>...]
///
/// Actions (one per spec):
///   throw              throw cc::Error(kFaultInjected) at the site
///   badalloc           throw std::bad_alloc at the site
///   delay=<ms>         sleep <ms> milliseconds at the site (stall a worker)
///   flip=<n>           flip <n> seeded-random bits of the site's byte buffer
///   truncate=<n>       drop the last <n> bytes of the site's byte buffer
///
/// Selectors (optional; default = fire on every hit):
///   nth=<k>            fire only on the k-th hit of the site (0-based)
///   every=<k>          fire on hits 0, k, 2k, ...
///   p=<prob>           fire with probability <prob> per hit (seeded)
///   seed=<u64>         RNG seed for flip/p (default 0)
///
/// Determinism contract: the bytes a flip/truncate produces are a pure
/// function of (spec, hit index) — re-arming the same spec against the same
/// call sequence replays byte-for-byte identical corruption, which is what
/// lets CI assert exact outcomes (tests/test_fault.cpp pins this).
///
/// Throw/badalloc/delay actions fire at point() sites; flip/truncate fire at
/// corrupt() sites.  An action armed on a site of the other kind simply
/// never fires.  Every fire bumps the telemetry counter
/// `fault.injected.<site>`.
///
/// Site table and grammar reference: docs/ROBUSTNESS.md.

/// True when at least one fault spec is armed, in the whole process.  One
/// relaxed atomic load — the only cost hot paths pay when injection is idle.
bool armed();

/// True when some armed spec names @p site (regardless of selectors).  Use
/// to gate work that is only needed if this site can fire, e.g. the defensive
/// input copy in deserialize().
bool armed_for(const char* site);

/// Execution fault site: runs any armed throw/badalloc/delay specs for
/// @p site.  No-op when nothing matching is armed.
void point(const char* site);

/// Data fault site: applies any armed flip/truncate specs for @p site to
/// @p bytes in place.  No-op when nothing matching is armed.
void corrupt(const char* site, std::vector<std::uint8_t>& bytes);

/// Arm one or more specs (same grammar as CC_FAULT; ';'-separated).  Returns
/// false — arming nothing — when the spec does not parse.  Specs accumulate
/// on top of whatever is already armed.
bool arm(const std::string& spec);

/// Disarm everything, including CC_FAULT-armed specs.  Hit counters reset.
void disarm_all();

/// Total times @p site was evaluated (armed specs matching it, fired or not).
std::uint64_t hits(const std::string& site);

/// Total times any spec actually fired at @p site.
std::uint64_t fired(const std::string& site);

}  // namespace pyblaz::fault
