// Package domains generalizes PKRU-Safe's two-compartment policy to N
// mutually distrusting untrusted domains, the extension §6 sketches under
// "Number of Compartments" — now without the 14-key hardware ceiling.
//
// Each domain owns a *logical* protection key from an internal/vkey table
// and a private heap pool from pkalloc. Logical keys are multiplexed onto
// the hardware slots on demand: entering a domain activates its key
// (possibly evicting the least-recently-entered domain's slot), so any
// number of domains can coexist while at most thirteen are
// hardware-resident at once. A domain's PKRU grants the shared pool (key
// 0) and its own slot only; the trusted compartment retains full rights.
//
// Every rights switch goes through mpk.InstallAudited — the same
// write-then-readback discipline the ffi call gates use — and restore
// re-activates the caller's domain rather than reinstating a saved PKRU
// value, because an eviction between enter and exit can rebind the saved
// value's hardware slot to a different tenant (the Garmr stale-PKRU
// hazard).
package domains

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/heap"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/telemetry"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// ErrUnknownDomain is returned for operations on a removed domain.
var ErrUnknownDomain = errors.New("domains: unknown or removed domain")

// Domain is one untrusted compartment: a logical key and a private pool.
// Its hardware key and PKRU are not fixed properties — they exist only
// while the domain holds a slot, and change across evictions.
type Domain struct {
	Name string
	VKey vkey.ID

	region *vm.Region
}

// Region returns the domain's private pool reservation.
func (d *Domain) Region() *vm.Region { return d.region }

// Manager owns the trusted pool, the shared pool, the per-domain pools
// and the virtual-key table. It is safe for concurrent use.
//
// The manager keeps no nesting of its own. The vkey table knows only the
// compartment each register is in now; the ffi threads' frames own the
// nesting of gated calls, and each restore Enter returns holds the
// compartment its own entry left.
type Manager struct {
	mu      sync.Mutex
	alloc   *pkalloc.Allocator
	table   *vkey.Table
	domains map[string]*Domain
	tracer  *gatetrace.Tracer
}

// NewManager reserves the trusted and shared pools in space and builds
// the virtual-key table over the remaining hardware keys.
func NewManager(space *vm.Space) (*Manager, error) {
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		return nil, err
	}
	table, err := vkey.NewTable(space, vkey.Config{Reserved: []mpk.Key{alloc.TrustedKey()}})
	if err != nil {
		return nil, err
	}
	return &Manager{
		alloc:   alloc,
		table:   table,
		domains: make(map[string]*Domain),
	}, nil
}

// Space returns the backing address space.
func (m *Manager) Space() *vm.Space { return m.alloc.Space() }

// Allocator returns the compartment-aware allocator behind the pools.
func (m *Manager) Allocator() *pkalloc.Allocator { return m.alloc }

// Table returns the virtual-key table multiplexing the domains.
func (m *Manager) Table() *vkey.Table { return m.table }

// TrustedKey returns the key tagging MT pages.
func (m *Manager) TrustedKey() mpk.Key { return m.alloc.TrustedKey() }

// SetTelemetry publishes the virtual-key gauges and counters into reg.
func (m *Manager) SetTelemetry(reg *telemetry.Registry) { m.table.SetTelemetry(reg) }

// SetTracing attaches the request-scoped tracer: domain Enter/Leave pairs
// become timed spans on the entering register's bound context, and every
// LRU eviction the table performs is attributed to the request whose
// activation triggered it. A nil tracer detaches both.
func (m *Manager) SetTracing(tr *gatetrace.Tracer) {
	m.mu.Lock()
	m.tracer = tr
	m.mu.Unlock()
	if tr == nil {
		m.table.SetEvictionSink(nil)
	} else {
		m.table.SetEvictionSink(tr.ObserveEviction)
	}
}

// Tracing returns the attached tracer, if any.
func (m *Manager) Tracing() *gatetrace.Tracer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracer
}

// DomainState is one domain's row in an Occupancy snapshot: the vkey
// state of its logical key joined with its private pool's heap counters
// and quarantine epoch.
type DomainState struct {
	Name  string        `json:"name"`
	Key   vkey.KeyState `json:"key"`
	Pool  heap.Stats    `json:"pool"`
	Epoch uint64        `json:"epoch,omitempty"` // per-domain quarantine epoch
}

// Occupancy joins the vkey table's structured snapshot with the
// per-domain pool stats — the payload the obs plane serves as
// /domains.json.
type Occupancy struct {
	Table   vkey.Occupancy `json:"table"`
	Domains []DomainState  `json:"domains"`
}

// Occupancy returns a structured snapshot of every domain's slot state,
// eviction history and pool usage, plus the table-wide stack depths.
func (m *Manager) Occupancy() Occupancy {
	occ := Occupancy{Table: m.table.Occupancy()}
	byID := make(map[vkey.ID]vkey.KeyState, len(occ.Table.Keys))
	for _, ks := range occ.Table.Keys {
		byID[ks.ID] = ks
	}
	for _, d := range m.Domains() {
		ds := DomainState{Name: d.Name, Key: byID[d.VKey]}
		if st, ok := m.alloc.DomainStats(d.Name); ok {
			ds.Pool = st
		}
		if ep, ok := m.alloc.DomainEpoch(d.Name); ok {
			ds.Epoch = ep
		}
		occ.Domains = append(occ.Domains, ds)
	}
	return occ
}

// AddDomain creates a new untrusted domain with its own logical key and
// pool. There is no domain-count ceiling: the pool region is recycled
// from removed domains when possible, and the logical key waits parked
// until the first Enter binds it a hardware slot.
func (m *Manager) AddDomain(name string) (*Domain, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.domains[name]; dup {
		return nil, fmt.Errorf("domains: %q already exists", name)
	}
	region, err := m.alloc.AddDomainPool(name, vkey.InactiveKey)
	if err != nil {
		return nil, err
	}
	id := m.table.Alloc(name)
	if err := m.table.Attach(id, region.Base, region.Size); err != nil {
		m.table.Free(id)
		m.alloc.RemoveDomainPool(name)
		return nil, err
	}
	d := &Domain{Name: name, VKey: id, region: region}
	m.domains[name] = d
	return d, nil
}

// RemoveDomain destroys a domain: its logical key is freed (hardware slot
// recycled, pages parked on the inactive key, bound threads' PKRU rights
// revoked) and its pool is scrubbed — every resident page zeroed, the
// same hygiene pkalloc.QuarantineUntrusted applies to MU — then parked
// for reuse by the next AddDomain. Tenant churn therefore consumes
// neither protection keys nor address space.
//
// Removal is refused with vkey.ErrKeyBusy while the domain has live
// frames: a thread executing inside it (or due to return into it) would
// otherwise lose its pages mid-flight and its later exit could not
// re-derive the compartment's rights. Callers
// churning tenants under live traffic should treat the error as "try the
// next victim", the way pkru-servo's churn loop does.
func (m *Manager) RemoveDomain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDomain, name)
	}
	if err := m.table.Free(d.VKey); err != nil {
		return fmt.Errorf("domains: remove %q: %w", name, err)
	}
	if err := m.alloc.RemoveDomainPool(name); err != nil {
		return err
	}
	delete(m.domains, name)
	return nil
}

// Domain returns the named domain.
func (m *Manager) Domain(name string) (*Domain, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.domains[name]
	return d, ok
}

// Domains returns all domains sorted by name.
func (m *Manager) Domains() []*Domain {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Domain, 0, len(m.domains))
	for _, d := range m.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllocTrusted allocates from MT.
func (m *Manager) AllocTrusted(size uint64) (vm.Addr, error) {
	return m.alloc.Alloc(size)
}

// AllocShared allocates from the key-0 pool every compartment can access.
func (m *Manager) AllocShared(size uint64) (vm.Addr, error) {
	return m.alloc.UntrustedAlloc(size)
}

// Alloc allocates from the domain's private pool.
func (m *Manager) Alloc(d *Domain, size uint64) (vm.Addr, error) {
	return m.alloc.DomainAlloc(d.Name, size)
}

// Free releases an allocation from whichever pool owns it. Ownership
// resolves through the address space's region index — one binary search
// plus a map probe — never a scan over every domain pool.
func (m *Manager) Free(addr vm.Addr) error {
	return m.alloc.Free(addr)
}

// Stats returns the domain's pool counters.
func (m *Manager) Stats(d *Domain) (heap.Stats, bool) {
	return m.alloc.DomainStats(d.Name)
}

// Pin exempts the domain's logical key from LRU eviction — the
// resilience layer's shield for healthy latency-critical tenants while
// a flapping neighbour half-open-probes (vkey.Table.Pin semantics).
func (m *Manager) Pin(name string) error {
	m.mu.Lock()
	d, ok := m.domains[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDomain, name)
	}
	return m.table.Pin(d.VKey)
}

// Unpin makes the domain's logical key evictable again.
func (m *Manager) Unpin(name string) error {
	m.mu.Lock()
	d, ok := m.domains[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDomain, name)
	}
	return m.table.Unpin(d.VKey)
}

// Enter switches the register into a domain through an audited gate: the
// domain's logical key is activated (evicting the LRU domain if no
// hardware slot is free) and the rights are installed with the same
// write-then-readback verification the ffi call gates perform — both
// under the vkey table's lock, so a concurrent eviction cannot rebind the
// chosen slot between activation and installation. The register is bound
// to the table for eviction-time revocation while it is inside a domain.
// A nil domain enters the trusted compartment, the reverse-gate case.
//
// The returned restore re-enters the compartment Enter left — activating
// its logical key again rather than reinstating the saved PKRU bits — so
// the rights installed on exit are always current, even if an eviction
// rebound the caller's old slot while the callee ran. A static caller
// gets the rights it held back. A restore whose installation fails the
// audit leaves the domain entered, so it can be retried.
func (m *Manager) Enter(reg mpk.RightsRegister, d *Domain) (restore func() error, err error) {
	id := vkey.Trusted
	name := "trusted"
	if d != nil {
		id = d.VKey
		name = d.Name
	}
	outside := reg.Rights()
	_, from, err := m.table.Enter(reg, id)
	if err != nil {
		return nil, err
	}
	// The enter→restore pair is a residency span on the entering request's
	// trace: the window this register held the domain's compartment open.
	endSpan := m.Tracing().ContextFor(reg).Span("domain:"+name, name)
	left := false
	return func() error {
		if left {
			// A second restore would release a frame some other entry holds.
			return errors.New("domains: restore called twice")
		}
		_, err := m.table.Leave(reg, id, from, outside)
		if err == nil {
			left = true
			endSpan()
		}
		return err
	}, nil
}

// BindLibrary wires a registered untrusted library to the domain through
// the ffi runtime: calls into the library gate with the domain's
// activated rights (cross-domain calls gate even U→U), gate exits
// re-derive a domain caller's compartment through the shared vkey table, and
// the library's allocations land in the domain's private pool.
func (m *Manager) BindLibrary(rt *ffi.Runtime, lib string, d *Domain) {
	rt.BindLibraryDomain(lib, ffi.DomainBinding{
		Pool:  d.Name,
		Table: m.table,
		Key:   d.VKey,
	})
}
