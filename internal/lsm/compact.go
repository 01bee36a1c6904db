package lsm

import "bytes"

// Compaction merges every table of levels 0 and 1 into a fresh run of
// level-1 tables, cut when a file reaches TargetTableBytes. Because versions
// are the store's time-travel history, compaction must keep every (logical
// key, version) pair alive forever; the only entries it may drop are lower-
// sequence duplicates within one such pair (an insert immediately
// superseded by a delete in the same version, or vice versa), which no
// view at any version can observe.
//
// The merge itself runs without any store lock: it reads a pinned,
// reference-counted table set while writers keep appending and flushing.
// Install then reconciles — tables flushed to L0 during the merge stay in
// L0; only the captured inputs are replaced by the merged output.

// Compact merges all on-disk tables into level 1. It is safe to call
// concurrently with reads and writes; one compaction runs at a time.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return errClosed
	}
	captured := s.tables
	captured.acquire()
	s.mu.RUnlock()
	defer captured.release()
	inputs := captured.all()
	if len(inputs) < 2 {
		return nil
	}
	inputIDs := make(map[uint64]bool, len(inputs))
	for _, r := range inputs {
		inputIDs[r.id] = true
	}

	// Merge newest-first sources; within one (logical, version) pair the
	// highest sequence arrives first and later duplicates are dropped. The
	// merge reads every input block once, so it does not fill the block
	// cache: that would evict the read path's working set for blocks about
	// to be obsolete.
	sc := getScratch()
	defer sc.put()
	m := sc.mergeSources(nil, captured.levels, nil, nil, true)

	var outputs []*sstReader
	var sw *sstWriter
	var swID uint64
	var lastLogical []byte
	var lastVersion uint64
	finishCurrent := func() error {
		if sw == nil {
			return nil
		}
		if err := sw.finish(); err != nil {
			return err
		}
		r, err := openSSTable(s.tablePath(swID), swID, s.blocks)
		if err != nil {
			return err
		}
		outputs = append(outputs, r)
		sw = nil
		return nil
	}
	fail := func(err error) error {
		if sw != nil {
			sw.f.Close()
		}
		for _, r := range outputs {
			r.markObsolete()
		}
		return err
	}
	for m.next() {
		key := m.key()
		logical := logicalOf(key)
		version, _ := stampOf(key)
		if lastLogical != nil && version == lastVersion && bytes.Equal(lastLogical, logical) {
			continue // superseded duplicate within one (logical, version)
		}
		lastLogical = append(lastLogical[:0], logical...)
		lastVersion = version
		if sw == nil {
			swID = s.allocFileID()
			var err error
			if sw, err = newSSTWriter(s.tablePath(swID), s.opt.BlockBytes); err != nil {
				return fail(err)
			}
		}
		if err := sw.add(key, m.op()); err != nil {
			return fail(err)
		}
		if sw.size() >= uint64(s.opt.TargetTableBytes) {
			if err := finishCurrent(); err != nil {
				return fail(err)
			}
		}
	}
	if err := sc.err(); err != nil {
		return fail(err) // a block that fails its checks must not shorten the run
	}
	if err := finishCurrent(); err != nil {
		return fail(err)
	}

	// Install: everything flushed to L0 since the capture survives; the
	// captured inputs are replaced by the merged run.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return fail(errClosed)
	}
	var keptL0 []*sstReader
	for _, r := range s.tables.levels[0] {
		if !inputIDs[r.id] {
			keptL0 = append(keptL0, r)
		}
	}
	levels := [][]*sstReader{keptL0, outputs}
	newSet := newTableSet(levels)
	if err := s.relevelManifest(levels); err != nil {
		newSet.release()
		return fail(err)
	}
	s.mu.Lock()
	old := s.tables
	s.tables = newSet
	s.mu.Unlock()
	for _, r := range inputs {
		r.dead.Store(true) // file removed when the last pinned view releases
	}
	old.release()
	for _, r := range outputs {
		r.unref() // creation reference; the new set owns them
	}
	s.compactions.Add(1)
	return nil
}
