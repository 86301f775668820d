package dispatch

import (
	"errors"
	"fmt"
	"sync"

	"spin/internal/rtti"
)

// Resource accounting for handler installations — the paper's §2.6 "Too
// many handlers": "events having more than one handler or guard consume
// some amount of kernel memory. Consequently, an extension could exhaust
// the system's memory by installing a large number of handlers on an
// event. Presently, SPIN denies additional installations when memory is
// low ... We are currently experimenting with different strategies for
// accounting and resource reclamation."
//
// This implements the strategy the paper was experimenting toward:
// explicit accounting. Installations are charged to the installing module
// (the handler procedure's defining module); a per-module quota and a
// global ceiling bound the kernel memory any extension — or all of them
// together — can consume through the dispatcher. Either limit at zero is
// unlimited, and intrinsic handlers are exempt (they are the procedures
// the system was built from, not dynamically added state).

// ErrQuotaExceeded reports a denied installation under resource
// accounting.
var ErrQuotaExceeded = errors.New("dispatch: handler installation quota exceeded")

// quotas tracks per-module and global binding counts for one dispatcher.
type quotas struct {
	mu        sync.Mutex
	perModule int // max bindings per installing module; 0 = unlimited
	global    int // max bindings across all modules; 0 = unlimited
	counts    map[*rtti.Module]int
	total     int
}

// charge accounts one installation to m, denying it if a limit would be
// exceeded. Anonymous handlers (nil module) count only against the global
// ceiling.
func (q *quotas) charge(m *rtti.Module) error {
	// Accounting is always on and the limits are read under the lock:
	// SetQuotas can change them at runtime (journaled; see journalctl.go),
	// so counts must be accurate even for bindings installed while no
	// limit was set. Installation is control-plane work that can afford
	// the mutex.
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.global > 0 && q.total >= q.global {
		return fmt.Errorf("%w: dispatcher limit %d reached", ErrQuotaExceeded, q.global)
	}
	if m != nil {
		if q.counts == nil {
			q.counts = make(map[*rtti.Module]int)
		}
		if q.perModule > 0 && q.counts[m] >= q.perModule {
			return fmt.Errorf("%w: module %s at its quota of %d",
				ErrQuotaExceeded, m.Name(), q.perModule)
		}
		q.counts[m]++
	}
	q.total++
	return nil
}

// release returns one installation's accounting, on uninstall.
func (q *quotas) release(m *rtti.Module) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.total > 0 {
		q.total--
	}
	if m != nil && q.counts[m] > 0 {
		q.counts[m]--
	}
}

// Installed reports the current accounting: total bindings and the given
// module's share.
func (d *Dispatcher) Installed(m *rtti.Module) (total, module int) {
	d.quota.mu.Lock()
	defer d.quota.mu.Unlock()
	return d.quota.total, d.quota.counts[m]
}
