package backend

import (
	"citare/internal/eval"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// LSM is the persistent backend: a thin adapter over internal/lsm's Store
// that erases its concrete view types into the Backend interface.
type LSM struct{ store *lsm.Store }

// OpenLSM opens (or creates) a persistent store in dir. See lsm.Open for
// recovery semantics.
func OpenLSM(dir string, schema *storage.Schema, opt lsm.Options) (*LSM, error) {
	st, err := lsm.Open(dir, schema, opt)
	if err != nil {
		return nil, err
	}
	return &LSM{store: st}, nil
}

// Store returns the underlying LSM store (for stats surfaces).
func (l *LSM) Store() *lsm.Store { return l.store }

// Schema returns the backend schema.
func (l *LSM) Schema() *storage.Schema { return l.store.Schema() }

// Insert adds a tuple at the current version.
func (l *LSM) Insert(rel string, vals ...string) error { return l.store.Insert(rel, vals...) }

// Delete removes a live tuple, reporting whether it was live.
func (l *LSM) Delete(rel string, vals ...string) (bool, error) { return l.store.Delete(rel, vals...) }

// Commit freezes the current version, fsyncs the WAL and advances.
func (l *LSM) Commit(label string) (uint64, error) { return l.store.Commit(label) }

// Version returns the current (uncommitted) version number.
func (l *LSM) Version() uint64 { return l.store.Version() }

// Versions lists committed version numbers in ascending order.
func (l *LSM) Versions() []uint64 { return l.store.Versions() }

// Label returns the label of a committed version, if any.
func (l *LSM) Label(version uint64) string { return l.store.Label(version) }

// lsmView erases *lsm.View into the View interface; the indirection exists
// so that the untyped-nil convention of eval.DBView holds (a missing
// relation must compare equal to nil through the interface).
type lsmView struct{ v *lsm.View }

func (w lsmView) Relation(name string) eval.RelView {
	if r := w.v.Relation(name); r != nil {
		return r
	}
	return nil
}

func (w lsmView) Position() (uint64, bool) { return w.v.Position() }

func (w lsmView) Release() { w.v.Release() }

// Snapshot views the current state, isolated from later writes.
func (l *LSM) Snapshot() (View, error) {
	v, err := l.store.Snapshot()
	if err != nil {
		return nil, err
	}
	return lsmView{v: v}, nil
}

// AsOf views a committed version, served directly from the version-stamped
// persistent keys.
func (l *LSM) AsOf(version uint64) (View, error) {
	v, err := l.store.AsOf(version)
	if err != nil {
		return nil, err
	}
	return lsmView{v: v}, nil
}

// Changes lists the writes to rel between two positions, while the store
// still holds them in memory (see lsm.Store.Changes).
func (l *LSM) Changes(rel string, from, to uint64, fn func(deleted bool, t storage.Tuple) bool) bool {
	return l.store.Changes(rel, from, to, fn)
}

// Close flushes and closes the store.
func (l *LSM) Close() error { return l.store.Close() }
