package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"hetcore/internal/hetsim"
)

// CacheVersion is the persistent-cache schema generation. Bump it
// whenever the serialized result structs, the cache envelope, or the
// simulator semantics change in a way the device-table hash cannot see —
// every existing cache entry and remote worker then self-invalidates
// through the stamp mismatch instead of serving stale results.
// v2: fleet observability — request envelopes carry trace context and
// the response carries a server-side timing breakdown.
// v3: device-runner registry + the SoC layer — resolution goes through
// hetsim runners and "soc.Result" joins the codec.
// v4: pluggable SoC component classes — soc.Result gains accelerator
// fields and dispatch placement, and the config grammar grows the
// x{c|t}<U> accelerator term, so v3 soc entries no longer decode to
// the same shape.
// v5: traffic scenarios — "traffic" joins the runner registry with
// "traffic.Result" in the codec, and CPU component runs gain the cache
// MPKI/occupancy fields the cache-aware scheduler conditions on, so v4
// cpu entries would replay without them.
// v6: CPUResult gains Activity, from which BaseTFET, the one-core
// BaseTFET components and the Fig. 14 operating points are repriced; a
// v5 cpu entry has none to reprice.
// v7: the binary result codec replaces JSON on disk and on the wire —
// entries are a binary header plus payload, and JobResponse.Result
// carries the payload as base64.
const CacheVersion = 7

var deviceHash = sync.OnceValue(func() string {
	// Hash the fully-rendered CPU and GPU configuration tables: any
	// change to a latency, size, frequency or added/renamed field yields
	// a different stamp. %+v includes nested field names, so struct
	// reshapes are caught too.
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", hetsim.CPUConfigs(), hetsim.GPUConfigs())
	return hex.EncodeToString(h.Sum(nil))[:12]
})

// DeviceTableHash returns a short hex digest of the simulated device
// tables (every CPU and GPU configuration, fully rendered).
func DeviceTableHash() string { return deviceHash() }

// Stamp is the version stamp folded into every persistent cache entry
// and checked across the wire protocol: client and worker must agree on
// both the schema generation and the device tables before a result is
// trusted.
func Stamp() string {
	return fmt.Sprintf("hetcore.dist/v%d+%s", CacheVersion, DeviceTableHash())
}
