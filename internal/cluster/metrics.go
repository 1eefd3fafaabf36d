package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"relest/internal/obs"
)

// Coordinator metric names. Labels use obs.L's inline form; every label
// value here comes from a closed set (shard indices, status codes), never
// client input, so the exposition's cardinality stays bounded.
const (
	// mFanout counts shard sub-requests issued by estimate fanouts.
	mFanout = "relestd_shard_fanout_total"
	// mDeadlineMiss counts shard sub-requests that missed their deadline
	// slice (labelled by shard) — the degraded-answer trigger.
	mDeadlineMiss = "relestd_shard_deadline_miss_total"
	// mShardLatency is the per-shard sub-request latency histogram
	// (labelled by shard).
	mShardLatency = "relestd_shard_request_seconds"
	// mCoordReq counts coordinator estimate requests by status code.
	mCoordReq = "relestd_coord_requests_total"
	// mPartialResp counts degraded (partial: true) estimate responses.
	mPartialResp = "relestd_partial_responses_total"
	// mRebalance counts completed shard rebalances.
	mRebalance = "relestd_rebalance_total"
	// mScrapeErr counts shard /metrics scrapes that failed during a
	// merged exposition (labelled by shard); the merge skips the shard
	// and carries on.
	mScrapeErr = "relestd_shard_scrape_errors_total"
)

func shardLabel(name string, shard int) string {
	return obs.L(name, "shard", strconv.Itoa(shard))
}

// handleMetrics serves the coordinator's own metrics followed by every
// shard's families re-labelled with shard="N", so one scrape shows the
// whole cluster with per-shard series kept distinct. An unreachable
// shard is skipped (and counted) rather than failing the scrape.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	drivers := c.shardDrivers()
	scrapes := make(map[int][]byte, len(drivers))
	for s, d := range drivers {
		status, raw, err := d.Get(r.Context(), "/metrics")
		if err != nil || status != http.StatusOK {
			c.col.Add(shardLabel(mScrapeErr, s), 1)
			continue
		}
		scrapes[s] = raw
	}

	var own bytes.Buffer
	_ = c.col.Metrics().WritePrometheus(&own)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = writeMergedExposition(w, own.Bytes(), scrapes)
}

// writeMergedExposition writes the coordinator's own exposition verbatim,
// then each shard's families with a shard="N" label injected into every
// series. Families are emitted sorted with a single # TYPE line each, the
// format the exposition contract requires even when the same family
// appears on several shards.
func writeMergedExposition(w io.Writer, own []byte, scrapes map[int][]byte) error {
	if _, err := w.Write(own); err != nil {
		return err
	}

	type series struct {
		name  string // full labelled series name
		value string
	}
	fams := map[string]string{}    // family → kind
	byFam := map[string][]series{} // family → labelled series in scrape order
	shards := make([]int, 0, len(scrapes))
	for s := range scrapes {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		label := `shard="` + strconv.Itoa(s) + `"`
		currentFam := ""
		for _, line := range strings.Split(string(scrapes[s]), "\n") {
			if line == "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fields := strings.Fields(rest)
				if len(fields) != 2 {
					continue
				}
				currentFam = fields[0]
				fams[currentFam] = fields[1]
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 || currentFam == "" {
				continue
			}
			byFam[currentFam] = append(byFam[currentFam], series{
				name:  injectLabel(line[:sp], label),
				value: line[sp+1:],
			})
		}
	}

	names := make([]string, 0, len(fams))
	for f := range fams {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, fams[f]); err != nil {
			return err
		}
		for _, sr := range byFam[f] {
			if _, err := fmt.Fprintf(w, "%s %s\n", sr.name, sr.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// injectLabel adds one label pair to a series name: `fam` gains `{pair}`,
// `fam{a="b"}` gains `,pair` before the closing brace. Histogram children
// (`fam_bucket{le="..."}`) come through the same path, so the shard label
// lands next to the le label, keeping bucket series distinct per shard.
func injectLabel(name, pair string) string {
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}
