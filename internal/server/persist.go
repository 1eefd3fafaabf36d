package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"relest/internal/relation"
)

// Snapshot layout inside Config.SnapshotDir:
//
//	manifest.json   — relations (name + pinned schema) and synopses
//	                  (name, tenant, creation spec)
//	relations/*.csv — base relation contents, schema-pinned CSV
//	wal.jsonl       — append-only stream log (never truncated by a save)
//
// Restore rebuilds every synopsis from its creation spec rather than
// serializing sample state: static draws are deterministic (seed +
// sorted-name order + identical restored relations), and incremental
// reservoirs are reconstructed by replaying the full WAL through the same
// per-synopsis seeded RNG. Both paths make restored estimates
// byte-identical to pre-snapshot ones.

const manifestName = "manifest.json"

type manifest struct {
	Version   int                `json:"version"`
	Relations []manifestRelation `json:"relations"`
	Synopses  []manifestSynopsis `json:"synopses"`
}

type manifestRelation struct {
	Name string `json:"name"`
	// Columns pins the schema so the CSV re-import parses every cell with
	// its original kind instead of re-inferring (a lossless round-trip:
	// float formatting uses strconv 'g'/-1, which parses back exactly).
	Columns []manifestColumn `json:"columns"`
	Rows    int              `json:"rows"`
}

type manifestColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type manifestSynopsis struct {
	Name   string          `json:"name"`
	Tenant string          `json:"tenant"`
	Spec   SynopsisRequest `json:"spec"`
}

func parseKind(s string) (relation.Kind, error) {
	switch s {
	case "null":
		return relation.KindNull, nil
	case "int":
		return relation.KindInt, nil
	case "float":
		return relation.KindFloat, nil
	case "string":
		return relation.KindString, nil
	default:
		return 0, fmt.Errorf("unknown column kind %q", s)
	}
}

// saveSnapshot persists the registry to dir: every base relation as
// schema-pinned CSV plus a manifest of relation schemas and synopsis
// creation specs. Synopsis sample state is not serialized — the manifest
// spec plus the WAL reconstruct it exactly. The WAL itself is left
// untouched: it is the incremental synopses' full history from creation,
// which replay needs in its entirety.
func (reg *registry) saveSnapshot(dir string) (relations, synopses int, err error) {
	if err := os.MkdirAll(filepath.Join(dir, "relations"), 0o755); err != nil {
		return 0, 0, fmt.Errorf("creating snapshot dir: %w", err)
	}

	reg.mu.RLock()
	rels := make([]*relation.Relation, 0, len(reg.cat))
	for _, r := range reg.cat {
		rels = append(rels, r)
	}
	type namedEntry struct {
		name  string
		entry *synopsisEntry
	}
	entries := make([]namedEntry, 0, len(reg.syns))
	for name, e := range reg.syns {
		entries = append(entries, namedEntry{name, e})
	}
	reg.mu.RUnlock()

	var m manifest
	m.Version = 1
	for _, r := range rels {
		cols := make([]manifestColumn, 0, r.Schema().Len())
		for i := 0; i < r.Schema().Len(); i++ {
			c := r.Schema().Column(i)
			cols = append(cols, manifestColumn{Name: c.Name, Kind: c.Kind.String()})
		}
		m.Relations = append(m.Relations, manifestRelation{Name: r.Name(), Columns: cols, Rows: r.Len()})
		f, err := os.Create(filepath.Join(dir, "relations", r.Name()+".csv"))
		if err != nil {
			return 0, 0, fmt.Errorf("creating relation snapshot: %w", err)
		}
		if err := relation.ExportCSV(r, f); err != nil {
			_ = f.Close()
			return 0, 0, fmt.Errorf("exporting relation %q: %w", r.Name(), err)
		}
		if err := f.Close(); err != nil {
			return 0, 0, fmt.Errorf("closing relation snapshot: %w", err)
		}
	}
	for _, ne := range entries {
		m.Synopses = append(m.Synopses, manifestSynopsis{Name: ne.name, Tenant: ne.entry.tenant, Spec: ne.entry.spec})
	}
	sortManifest(&m)

	// Write the manifest last and atomically (rename over the old one), so
	// a crash mid-save leaves the previous snapshot intact and loadable.
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("creating manifest: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		_ = f.Close()
		return 0, 0, fmt.Errorf("encoding manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return 0, 0, fmt.Errorf("syncing manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return 0, 0, fmt.Errorf("publishing manifest: %w", err)
	}
	return len(m.Relations), len(m.Synopses), nil
}

// sortManifest orders manifest sections by name so the file is
// deterministic for a given registry state.
func sortManifest(m *manifest) {
	sort.Slice(m.Relations, func(i, j int) bool { return m.Relations[i].Name < m.Relations[j].Name })
	sort.Slice(m.Synopses, func(i, j int) bool { return m.Synopses[i].Name < m.Synopses[j].Name })
}

// restoreSnapshot loads dir into an empty registry: relations are
// re-imported with their pinned schemas, synopses are rebuilt from their
// creation specs (manifest first, then WAL-logged creations the manifest
// predates), and the WAL is replayed into the incremental ones. Returns
// the number of WAL events replayed; a dir with neither a manifest nor
// WAL events is an empty snapshot, not an error. A torn trailing WAL
// record (crash between write and fsync) is dropped and truncated away;
// events that cannot apply (their synopsis is unrecoverable) are counted
// in relestd_wal_skipped_total rather than failing the whole restore.
func (reg *registry) restoreSnapshot(dir string) (replayed int, restored bool, err error) {
	var m manifest
	haveManifest := true
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if !os.IsNotExist(err) {
			return 0, false, fmt.Errorf("reading manifest: %w", err)
		}
		haveManifest = false
	} else if err := json.Unmarshal(raw, &m); err != nil {
		return 0, false, fmt.Errorf("decoding manifest: %w", err)
	}

	events, tornAt, err := readWAL(dir)
	if err != nil {
		return 0, false, err
	}
	if tornAt >= 0 {
		// Drop the torn tail before the server reopens the log for
		// appending: new records written after the partial bytes would
		// corrupt every later replay.
		if terr := os.Truncate(walPath(dir), tornAt); terr != nil {
			return 0, false, fmt.Errorf("truncating torn stream log tail: %w", terr)
		}
		reg.rec.Add(mWALTorn, 1)
	}
	if !haveManifest && len(events) == 0 {
		return 0, false, nil
	}

	for _, mr := range m.Relations {
		// The name becomes a path component below: a hand-edited manifest
		// must not be able to read files outside the snapshot directory.
		if !ValidName(mr.Name) {
			return 0, false, errBadName("relation", mr.Name)
		}
		cols := make([]relation.Column, 0, len(mr.Columns))
		for _, mc := range mr.Columns {
			kind, err := parseKind(mc.Kind)
			if err != nil {
				return 0, false, fmt.Errorf("relation %q: %v", mr.Name, err)
			}
			cols = append(cols, relation.Column{Name: mc.Name, Kind: kind})
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return 0, false, fmt.Errorf("relation %q: %v", mr.Name, err)
		}
		f, err := os.Open(filepath.Join(dir, "relations", mr.Name+".csv"))
		if err != nil {
			return 0, false, fmt.Errorf("opening relation snapshot: %w", err)
		}
		rel, err := relation.ImportCSV(mr.Name, f, schema)
		_ = f.Close()
		if err != nil {
			return 0, false, fmt.Errorf("importing relation %q: %w", mr.Name, err)
		}
		if rel.Len() != mr.Rows {
			return 0, false, fmt.Errorf("relation %q: snapshot has %d rows, manifest says %d", mr.Name, rel.Len(), mr.Rows)
		}
		if err := reg.addRelation(rel); err != nil {
			return 0, false, err
		}
	}
	// Quotas gate new admissions, not recovery: a synopsis legitimately
	// created under an earlier (looser) tenant quota must survive a
	// restart under a tighter one — a startup veto would turn a config
	// change into data loss. The global byte budget still applies, and
	// losslessly: enforceBudget evicts cold entries, which rebuild
	// transparently on next reference. Restore runs before the listener
	// starts, so the temporary lift cannot race an admission. The
	// replaying flag covers both the manifest rebuilds and the WAL replay
	// below: creations and events already in the log must not re-log.
	quota := reg.tenantBudget
	reg.tenantBudget = 0
	reg.replaying = true
	defer func() {
		reg.tenantBudget = quota
		reg.replaying = false
	}()
	for _, ms := range m.Synopses {
		tenant := ms.Tenant
		if tenant == "" {
			tenant = defaultTenant
		}
		if err := reg.addSynopsis(ms.Name, tenant, ms.Spec); err != nil {
			return 0, false, fmt.Errorf("rebuilding synopsis %q: %w", ms.Name, err)
		}
	}

	skipped := 0
	for i, ev := range events {
		if ev.Op == "create" {
			if _, exists := reg.synopsis(ev.Synopsis); exists {
				// Already rebuilt from the manifest (or an earlier creation
				// record for the same name): nothing to replay.
				continue
			}
			if ev.Spec == nil {
				// A creation logged by an older binary without spec
				// support; unrecoverable, like its events below.
				skipped++
				continue
			}
			tenant := ev.Tenant
			if tenant == "" {
				tenant = defaultTenant
			}
			if cerr := reg.addSynopsis(ev.Synopsis, tenant, *ev.Spec); cerr != nil {
				// Typically a base relation that was never snapshotted:
				// the synopsis cannot rebuild, so its stream events below
				// skip too. Counted, not fatal — the rest of the restore
				// stays usable.
				skipped++
				continue
			}
			replayed++
			continue
		}
		if ev.Op == "drop" {
			// The synopsis was deleted after this log's creation record (or
			// after the manifest that rebuilt it): replay the removal so the
			// restored registry converges on the acknowledged state. The
			// replaying flag suppresses re-logging the drop.
			if _, exists := reg.synopsis(ev.Synopsis); !exists {
				skipped++
				continue
			}
			if _, derr := reg.removeSynopsis(ev.Synopsis); derr != nil {
				return replayed, true, fmt.Errorf("replaying stream log event %d: %w", i, derr)
			}
			replayed++
			continue
		}
		e, ok := reg.synopsis(ev.Synopsis)
		if !ok {
			// The synopsis never became resident (creation skipped above,
			// or an event predating spec logging): count the loss so
			// operators can see it instead of silently dropping it.
			skipped++
			continue
		}
		if err := e.apply(reg, ev.Synopsis, StreamRequest{Op: ev.Op, Relation: ev.Relation, Tuple: ev.Tuple}); err != nil {
			return replayed, true, fmt.Errorf("replaying stream log event %d: %w", i, err)
		}
		replayed++
	}
	if skipped > 0 {
		reg.rec.Add(mWALSkipped, float64(skipped))
	}
	return replayed, true, nil
}
