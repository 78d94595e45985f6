package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pinnedDigests holds the digests of the simulated outputs for the
// default seed (1) and the held-out seed (2). Keys are workload/seed for
// outputs that do not depend on the run length, and workload/seed/jobs for
// the daemon workloads, whose digest covers every job sent.
//
//go:embed digests.json
var pinnedDigests []byte

// checkPinned compares res.Digest with the pinned digest for this seed
// and operation count (0 when the digest does not depend on it), if one
// is pinned.
func checkPinned(res *result, seed int64, ops int) {
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigests, &pinned); err != nil {
		res.problem("digests.json: %v", err)
		return
	}
	key := fmt.Sprintf("%s/%d", res.Workload, seed)
	if ops > 0 {
		key = fmt.Sprintf("%s/%d", key, ops)
	}
	if want, ok := pinned[key]; ok && want != res.Digest {
		res.problem("digest %s differs from the pinned %s for %s", res.Digest, want, key)
	}
}
