package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// registry is the daemon's mutable state: registered base relations and
// named synopses. A coarse RWMutex guards the maps; per-synopsis locks
// serialize stream updates and snapshotting so estimation never observes
// a half-applied event.
//
// The registry also owns the synopsis lifecycle: every entry retains the
// request spec it was built from, so a static synopsis evicted under the
// relest_synopsis_bytes budget can be rebuilt deterministically (same
// seed, same sorted-name draw order, same append-only base relations →
// byte-identical samples) the next time an estimate references it.
type registry struct {
	mu   sync.RWMutex
	cat  algebra.MapCatalog
	syns map[string]*synopsisEntry

	// clock is the logical LRU clock: every synopsis reference ticks it
	// and stamps the entry, so eviction order is deterministic per
	// reference sequence and never reads the wall clock.
	clock atomic.Int64

	// budget caps the summed Bytes() of resident static synopses; 0 is
	// unlimited. Incremental entries are pinned: they carry live stream
	// state that only the WAL can reconstruct, and their reservoirs
	// contribute nothing to the resident-bytes gauge anyway.
	budget int64
	// tenantBudget caps each tenant's resident static synopsis bytes;
	// 0 is unlimited.
	tenantBudget int64

	// admitMu serializes synopsis admission: the duplicate check, the
	// tenant quota check, the WAL creation record, and the publish into
	// syns happen under it as one unit, so two concurrent creates can
	// never both pass the same quota reading, and the WAL's creation
	// order always equals the publish order. It is the outermost lock on
	// the create path and is never taken while mu or an entry lock is
	// held.
	admitMu sync.Mutex

	// wal, when non-nil, receives every applied stream event (under the
	// entry lock, so log order equals application order per synopsis).
	wal *streamLog
	// replaying suppresses WAL appends while the WAL itself is being
	// replayed into freshly restored synopses.
	replaying bool

	rec obs.Recorder
}

// synopsisEntry is one named synopsis. Exactly one of static/inc is set
// while resident; an evicted static entry has static == nil until the
// next reference rebuilds it from spec.
type synopsisEntry struct {
	mu     sync.Mutex
	kind   string
	tenant string
	// spec is the creation request, retained for deterministic rebuild
	// after eviction and for snapshot manifests.
	spec SynopsisRequest
	// static is a drawn synopsis shared by plain estimates (read-only
	// concurrent access) and cloned per sequential/deadline request so
	// sample extensions stay private.
	static *estimator.Synopsis
	// inc is an incrementally-maintained synopsis; estimates run over a
	// snapshot taken under mu (incrementalSnapshot).
	inc *estimator.Incremental
	// evicted marks a static entry whose sample was dropped under the
	// byte budget (guarded by mu).
	evicted bool
	// lastUse is the registry clock tick of the most recent reference.
	lastUse atomic.Int64
}

func newRegistry(rec obs.Recorder) *registry {
	return &registry{cat: algebra.MapCatalog{}, syns: map[string]*synopsisEntry{}, rec: obs.Or(rec)}
}

// touch stamps the entry with a fresh logical-clock tick.
func (reg *registry) touch(e *synopsisEntry) {
	e.lastUse.Store(reg.clock.Add(1))
}

// ValidName reports whether a client-supplied relation or synopsis name
// is safe to use as a registry key and, under -snapshot-dir, as a file
// name inside the snapshot directory: letters, digits, underscore and
// hyphen only. The charset has no path separators and cannot spell
// "..", so a name can never escape the directory it is joined into.
func ValidName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// errBadName is the rejection message for names outside ValidName's
// charset, shared by the upload and create handlers.
func errBadName(kind, name string) error {
	return fmt.Errorf("invalid %s name %q: want 1-128 characters from [A-Za-z0-9_-]", kind, name)
}

// addRelation registers r under its name; duplicate or invalid names are
// an error.
func (reg *registry) addRelation(r *relation.Relation) error {
	if !ValidName(r.Name()) {
		return errBadName("relation", r.Name())
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.cat[r.Name()]; dup {
		return fmt.Errorf("relation %q already registered", r.Name())
	}
	reg.cat[r.Name()] = r
	return nil
}

// removeRelation drops the named relation from the catalog. A relation
// any synopsis spec references is refused with 409: evicted-synopsis
// rebuilds and incremental stream events re-read the base relation, so
// removing it would strand them. Like uploads, removals are
// snapshot-durable rather than WAL-logged — a drop after the last
// snapshot reappears on restore, exactly as an upload after the last
// snapshot is lost. The sharded coordinator leans on this endpoint to
// roll half-registered relations back after a failed fanout.
func (reg *registry) removeRelation(name string) (int, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.cat[name]; !ok {
		return 404, fmt.Errorf("no relation %q", name)
	}
	for sname, e := range reg.syns {
		if _, uses := e.spec.Relations[name]; uses {
			return 409, fmt.Errorf("relation %q is referenced by synopsis %q", name, sname)
		}
	}
	delete(reg.cat, name)
	return 0, nil
}

// removeSynopsis drops the named synopsis. When persistence is on, the
// drop is WAL-logged before the entry is unpublished (under admitMu,
// like creations), so the log's create/drop order always equals the
// registry's publish order and a restore replays to the same state.
func (reg *registry) removeSynopsis(name string) (int, error) {
	reg.admitMu.Lock()
	defer reg.admitMu.Unlock()
	reg.mu.RLock()
	_, ok := reg.syns[name]
	reg.mu.RUnlock()
	if !ok {
		return 404, fmt.Errorf("no synopsis %q", name)
	}
	if reg.wal != nil && !reg.replaying {
		if err := reg.wal.append(walEvent{Synopsis: name, Op: "drop"}); err != nil {
			return 500, fmt.Errorf("synopsis %q: appending drop to stream log: %v", name, err)
		}
	}
	reg.mu.Lock()
	delete(reg.syns, name)
	reg.mu.Unlock()
	reg.rec.Set(mSynopsisBytes, float64(reg.synopsisBytes()))
	return 0, nil
}

// relationBytes sums the resident column storage of registered relations.
func (reg *registry) relationBytes() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	total := 0
	for _, r := range reg.cat {
		total += r.Bytes()
	}
	return total
}

// entryBytes reports the entry's resident sample bytes (0 when evicted or
// incremental — incremental reservoirs materialize only at estimate time).
func (e *synopsisEntry) entryBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.static == nil {
		return 0
	}
	return e.static.Bytes()
}

// synopsisBytes sums the resident sample storage of registered synopses.
// Static synopses hold zero-copy sample views (index vectors); incremental
// ones report their reservoir snapshots only when estimated, so they
// contribute nothing here.
func (reg *registry) synopsisBytes() int {
	total := 0
	for _, e := range reg.entries() {
		total += e.entryBytes()
	}
	return total
}

// entries snapshots the entry pointers under the registry lock.
func (reg *registry) entries() []*synopsisEntry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]*synopsisEntry, 0, len(reg.syns))
	for _, e := range reg.syns {
		out = append(out, e)
	}
	return out
}

// tenantSynopsisBytes sums the resident static synopsis bytes owned by a
// tenant.
func (reg *registry) tenantSynopsisBytes(tenant string) int {
	total := 0
	for _, e := range reg.entries() {
		if e.tenant == tenant {
			total += e.entryBytes()
		}
	}
	return total
}

// relations lists registered relations in sorted-name order.
func (reg *registry) relations() []RelationInfo {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]RelationInfo, 0, len(reg.cat))
	for _, r := range reg.cat {
		out = append(out, RelationInfo{Name: r.Name(), Rows: r.Len(), Schema: r.Schema().String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// quotaError marks a rejection caused by a tenant quota; the handlers map
// it to its HTTP status instead of a generic 400.
type quotaError struct {
	status int
	msg    string
}

func (e *quotaError) Error() string { return e.msg }

// buildStatic draws the static synopsis a validated spec describes (see
// ValidateSynopsis; a relation a synopsis references cannot be removed).
// Draws iterate the spec's relations in sorted-name order so the seed pins
// the synopsis exactly; called with reg.mu held (create) or over the
// immutable catalog (rebuild — relations are append-only and never
// replaced, so reading the map under RLock suffices).
func (reg *registry) buildStatic(name string, req SynopsisRequest, cat map[string]*relation.Relation) (*estimator.Synopsis, error) {
	names := make([]string, 0, len(req.Relations))
	for rel := range req.Relations {
		names = append(names, rel)
	}
	sort.Strings(names)
	rng := sampling.NewSource(req.Seed).Rand(0)
	syn := estimator.NewSynopsis()
	for _, rel := range names {
		r := cat[rel]
		if err := syn.AddDrawn(r, min(req.Relations[rel], r.Len()), rng); err != nil {
			return nil, fmt.Errorf("synopsis %q: %v", name, err)
		}
	}
	return syn, nil
}

// addSynopsis creates the named synopsis from the request spec for the
// given tenant, enforcing the tenant byte quota and then the global byte
// budget (evicting colder entries when needed). When persistence is on,
// the creation itself is WAL-logged before the entry is published, so a
// synopsis created after the last snapshot survives a crash: restore
// replays the creation record and then its stream events in order.
func (reg *registry) addSynopsis(name, tenant string, req SynopsisRequest) error {
	reg.mu.Lock()
	req, err := ValidateSynopsis(name, req, func(rel string) bool {
		_, ok := reg.cat[rel]
		return ok
	})
	if err != nil {
		reg.mu.Unlock()
		return err
	}
	if _, dup := reg.syns[name]; dup {
		reg.mu.Unlock()
		return fmt.Errorf("synopsis %q already exists", name)
	}
	entry := &synopsisEntry{kind: req.Kind, tenant: tenant, spec: req}
	if req.Kind == "static" {
		entry.static, err = reg.buildStatic(name, req, reg.cat)
	} else {
		capacity := req.Capacity
		if capacity <= 0 {
			capacity = 1000
		}
		inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{
			Capacity: capacity, Seed: req.Seed,
		})
		names := make([]string, 0, len(req.Relations))
		for rel := range req.Relations {
			names = append(names, rel)
		}
		sort.Strings(names)
		for _, rel := range names {
			if terr := inc.Track(rel, reg.cat[rel].Schema()); terr != nil {
				err = fmt.Errorf("synopsis %q: %v", name, terr)
				break
			}
		}
		entry.inc = inc
	}
	if err != nil {
		reg.mu.Unlock()
		return err
	}
	reg.mu.Unlock()

	// Admission is serialized: every publish into syns goes through
	// admitMu, so the duplicate and quota checks below read a state no
	// concurrent create can invalidate before this entry is published.
	reg.admitMu.Lock()
	defer reg.admitMu.Unlock()

	reg.mu.RLock()
	_, dup := reg.syns[name]
	reg.mu.RUnlock()
	if dup {
		return fmt.Errorf("synopsis %q already exists", name)
	}

	// Tenant quota: a tenant may not hold more resident synopsis bytes
	// than its allowance. Checked against the entry's own cost before it
	// is published, so an over-quota create leaves no trace. Concurrent
	// evictions can only shrink the reading, which keeps the check
	// conservative-safe.
	if reg.tenantBudget > 0 && entry.static != nil {
		have := reg.tenantSynopsisBytes(tenant)
		if add := entry.static.Bytes(); int64(have+add) > reg.tenantBudget {
			reg.rec.Add(mQuotaRejected, 1)
			return &quotaError{
				status: 413,
				msg: fmt.Sprintf("tenant %q synopsis bytes %d + %d exceed the %d-byte quota",
					tenant, have, add, reg.tenantBudget),
			}
		}
	}

	// Log the creation before publishing: stream events for this synopsis
	// can only be accepted once it is visible in the map, so the WAL's
	// creation record always precedes every event that replays into it.
	// A failed append refuses the create — an acknowledged creation is
	// durable, like an acknowledged stream event.
	if reg.wal != nil && !reg.replaying {
		spec := req
		if err := reg.wal.append(walEvent{Synopsis: name, Op: "create", Tenant: tenant, Spec: &spec}); err != nil {
			return fmt.Errorf("synopsis %q: appending creation to stream log: %v", name, err)
		}
	}

	reg.mu.Lock()
	reg.syns[name] = entry
	reg.mu.Unlock()
	reg.touch(entry)
	reg.enforceBudget(entry)
	reg.rec.Set(mSynopsisBytes, float64(reg.synopsisBytes()))
	return nil
}

// enforceBudget evicts least-recently-used resident static synopses until
// the summed resident bytes fit the budget. The entry just referenced
// (keep) is never evicted — the budget is a pressure valve, not a ban on
// any single synopsis — and incremental entries are pinned. Eviction
// drops only the entry's sample storage; in-flight estimates holding the
// evicted *estimator.Synopsis keep it alive until they finish, so
// eviction never races an answer.
func (reg *registry) enforceBudget(keep *synopsisEntry) {
	if reg.budget <= 0 {
		return
	}
	for {
		entries := reg.entries()
		total := 0
		var victim *synopsisEntry
		for _, e := range entries {
			b := e.entryBytes()
			total += b
			if b == 0 || e == keep || e.inc != nil {
				continue
			}
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
		}
		if int64(total) <= reg.budget || victim == nil {
			return
		}
		victim.mu.Lock()
		// Re-check under the lock: a concurrent rebuild may have touched
		// the entry since it was chosen; eviction of a just-rebuilt entry
		// is still correct (the next reference rebuilds again), so only
		// the already-evicted case is skipped.
		if victim.static != nil && !victim.evicted {
			victim.static = nil
			victim.evicted = true
			reg.rec.Add(mEvictions, 1)
		}
		victim.mu.Unlock()
	}
}

// synopsis returns the named entry.
func (reg *registry) synopsis(name string) (*synopsisEntry, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	e, ok := reg.syns[name]
	return e, ok
}

// synopsisNames lists synopsis names, sorted.
func (reg *registry) synopsisNames() []string {
	reg.mu.RLock()
	names := make([]string, 0, len(reg.syns))
	for name := range reg.syns {
		names = append(names, name)
	}
	reg.mu.RUnlock()
	sort.Strings(names)
	return names
}

// synopses lists synopsis infos in sorted-name order.
func (reg *registry) synopses() []SynopsisInfo {
	names := reg.synopsisNames()
	out := make([]SynopsisInfo, 0, len(names))
	for _, name := range names {
		e, ok := reg.synopsis(name)
		if !ok {
			continue
		}
		out = append(out, e.info(name))
	}
	return out
}

// info snapshots the entry's current per-relation sample sizes.
func (e *synopsisEntry) info(name string) SynopsisInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	sizes := map[string]int{}
	switch {
	case e.static != nil:
		for _, rel := range e.static.Names() {
			n, _ := e.static.SampleSize(rel)
			sizes[rel] = n
		}
	case e.inc != nil:
		for _, rel := range e.inc.Names() {
			n, _ := e.inc.SampleSize(rel)
			sizes[rel] = n
		}
	}
	return SynopsisInfo{Name: name, Kind: e.kind, Tenant: e.tenant, Relations: sizes, Evicted: e.evicted}
}

// apply feeds one stream event to an incremental synopsis, appending it
// to the WAL (when persistence is on) inside the same critical section,
// so the log order matches the application order per synopsis and a
// replay reconstructs the identical reservoir state. The event is checked
// (Incremental.CheckInsert, CheckDelete: no generator draw) and logged
// before it is applied, so an error reply always leaves it absent, in
// memory now and after a restart.
func (e *synopsisEntry) apply(reg *registry, name string, req StreamRequest) error {
	if e.inc == nil {
		return fmt.Errorf("synopsis is %s; stream updates need kind incremental", e.kind)
	}
	reg.mu.RLock()
	r, ok := reg.cat[req.Relation]
	reg.mu.RUnlock()
	if !ok {
		return fmt.Errorf("relation %q not registered", req.Relation)
	}
	schema := r.Schema()
	if len(req.Tuple) != schema.Len() {
		return fmt.Errorf("tuple arity %d != schema arity %d for %q", len(req.Tuple), schema.Len(), req.Relation)
	}
	tup := make(relation.Tuple, schema.Len())
	for i, s := range req.Tuple {
		if s == "" {
			tup[i] = relation.Null()
			continue
		}
		v, err := relation.ParseValue(s, schema.Column(i).Kind)
		if err != nil {
			return fmt.Errorf("tuple column %d: %v", i, err)
		}
		tup[i] = v
	}
	reg.touch(e)
	e.mu.Lock()
	defer e.mu.Unlock()
	var check, do func(string, relation.Tuple) error
	switch req.Op {
	case "insert":
		check, do = e.inc.CheckInsert, e.inc.Insert
		if reg.replaying {
			do = e.inc.ReplayInsert
		}
	case "delete":
		check, do = e.inc.CheckDelete, e.inc.Delete
		if reg.replaying {
			do = e.inc.ReplayDelete
		}
	default:
		return fmt.Errorf("unknown op %q (want insert or delete)", req.Op)
	}
	// A replayed event was acknowledged: it is applied as it was, even one
	// that a log written before the stream contract checks holds and
	// Insert or Delete would now refuse, and it is not logged again.
	if reg.wal != nil && !reg.replaying {
		if err := check(req.Relation, tup); err != nil {
			return err
		}
		if werr := reg.wal.append(walEvent{Synopsis: name, Op: req.Op, Relation: req.Relation, Tuple: req.Tuple}); werr != nil {
			return fmt.Errorf("%w: %v", errStreamLog, werr)
		}
		reg.rec.Add(mWALEvents, 1)
	}
	// Under e.mu nothing moved since the check, so an event it passed
	// applies.
	return do(req.Relation, tup)
}

// errStreamLog reports a stream event the stream log could not append:
// the event was not applied.
var errStreamLog = errors.New("appending stream log")

// estimationSynopsis resolves the static synopsis an estimate should run
// over, transparently rebuilding an evicted entry from its spec first.
// Every mode shares the stored synopsis: estimation only reads it, and a
// sequential or deadline request grows samples of its own
// (estimator.DeadlineCountContext). Incremental entries go through
// incrementalSchemas and incrementalSnapshot instead.
func (reg *registry) estimationSynopsis(name string, e *synopsisEntry) (*estimator.Synopsis, error) {
	reg.touch(e)
	e.mu.Lock()
	for e.evicted {
		// Transparent rebuild: the spec's seed and the append-only base
		// relations make the redraw byte-identical to the evicted sample,
		// so callers cannot tell an eviction ever happened (beyond the
		// metrics). The catalog map is read under RLock; relations are
		// never replaced once registered.
		reg.mu.RLock()
		syn, err := reg.buildStatic(name, e.spec, reg.cat)
		reg.mu.RUnlock()
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("rebuilding evicted synopsis: %v", err)
		}
		e.static = syn
		e.evicted = false
		reg.rec.Add(mRebuilds, 1)
		e.mu.Unlock()
		// Rebuilding may push the total back over budget: shed colder
		// entries, never the one just rebuilt.
		reg.enforceBudget(e)
		reg.rec.Set(mSynopsisBytes, float64(reg.synopsisBytes()))
		e.mu.Lock()
		// Loop rather than fall through: while the lock was released for
		// enforceBudget, a concurrent create's or rebuild's enforceBudget
		// (which exempts only its own entry) may have evicted this one
		// again, leaving e.static nil. Each iteration re-checks under the
		// lock, so the estimate below always reads a resident sample.
	}
	defer e.mu.Unlock()
	return e.static, nil
}

// incrementalSchemas resolves an incremental entry's schemas for an
// estimate without touching its samples: a query binds against the
// tracked relations' schemas, which Track fixed before the entry was
// published. Incremental synopses support plain mode only: a snapshot
// holds samples without base relations, so it cannot be extended.
func (reg *registry) incrementalSchemas(e *synopsisEntry, mode string) (query.SchemaProvider, error) {
	reg.touch(e)
	if mode != "plain" {
		return nil, fmt.Errorf("mode %q needs a static synopsis (incremental snapshots cannot extend their samples)", mode)
	}
	return e.inc, nil
}

// incrementalSnapshot takes the snapshot a validated estimate runs over,
// under the entry lock so it never observes a half-applied event. The
// snapshot is a view of the samples; only a request that can read the
// sketch tier (tiered) pays for a copy of it.
func (e *synopsisEntry) incrementalSnapshot(tiered bool) (*estimator.Synopsis, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tiered {
		return e.inc.Snapshot()
	}
	return e.inc.SampleSnapshot()
}
