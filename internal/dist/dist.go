// Package dist turns the run-plan engine into a distributed service:
// engine results become durable and network-portable instead of dying
// with the process that computed them.
//
// Three pieces, layered strictly on top of internal/engine:
//
//   - A persistent content-addressed result cache (DiskCache) plugged
//     into engine.Engine as its second-level cache. Entries are keyed by
//     the SHA-256 of the engine key and stamped with a version derived
//     from CacheVersion plus a hash of the device tables, so caches
//     self-invalidate when the code or the simulated machine changes.
//
//   - A wire protocol and daemon (Daemon, served by cmd/hetserved):
//     POST /v1/jobs executes an engine job by key on the daemon's local
//     engine (with its own persistent cache) and streams the result
//     back; /v1/health reports liveness and the version stamp; the
//     internal/obs endpoints expose live metrics.
//
//   - A remote executor (Pool) plugged into engine.Engine: the listed
//     hetserved workers become extra engine lanes, with per-job
//     timeouts, bounded retry with exponential backoff, health-check
//     based worker eviction and transparent fallback to local
//     execution.
//
// Determinism: the simulators are pure functions of their keys and the
// binary result codec round-trips every result field exactly (floats
// travel as their IEEE-754 bits), so a result is byte-for-byte the same
// whether it came from a local run, the disk cache or a remote worker. Only keys a
// Resolver can reconstruct from their fields run remotely; variant keys
// that carry out-of-band config mutations (sweeps, DVFS points) always
// execute locally but still cache to disk.
package dist
