package store

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// This file is the streaming read side of the store: per-shard views
// for incremental consumers (the dataset server), pull iterators over
// shards, and the k-way merge that exports a store in domain order
// without materializing it. Every shipped backend appends in domain
// order on each shard (the pipeline's submission-order delivery over a
// sorted domain list guarantees it, resume included — a resumed run
// appends a suffix of the same sorted order), so the merge is the
// normal path; a store whose shards turn out unsorted falls back to
// materialize-and-sort.

// ShardView is the incremental-read interface over a sharded backend:
// shards can be scanned independently, and ShardStamp is a cheap change
// stamp per shard — unchanged stamp means unchanged content for the
// append-only backends this package ships, which is what lets the
// dataset server rebuild only the shards that grew.
type ShardView interface {
	NumShards() int
	ScanShard(i int, fn func(*Record) error) error
	ShardStamp(i int) (string, error)
}

// fileStamp stamps an append-only file by size and mtime; a missing
// file stamps as "absent".
func fileStamp(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "absent", nil
		}
		return "", fmt.Errorf("store: statting %s: %w", path, err)
	}
	return strconv.FormatInt(st.Size(), 10) + ":" + strconv.FormatInt(st.ModTime().UnixNano(), 10), nil
}

// NumShards implements ShardView (a JSONL store is one shard).
func (s *JSONL) NumShards() int { return 1 }

// ScanShard implements ShardView.
func (s *JSONL) ScanShard(i int, fn func(*Record) error) error {
	if i != 0 {
		return fmt.Errorf("store: shard %d out of range for a JSONL store", i)
	}
	return s.Scan(fn)
}

// ShardStamp implements ShardView.
func (s *JSONL) ShardStamp(i int) (string, error) { return fileStamp(s.path) }

// NumShards implements ShardView.
func (s *Sharded) NumShards() int { return s.shards }

// ShardStamp implements ShardView.
func (s *Sharded) ShardStamp(i int) (string, error) { return fileStamp(s.shardPath(i)) }

// ScanShard implements ShardView.
func (s *Sharded) ScanShard(i int, fn func(*Record) error) error {
	if i < 0 || i >= s.shards {
		return fmt.Errorf("store: shard %d out of range 0..%d", i, s.shards-1)
	}
	return scanFile(s.shardPath(i), fn)
}

// NumShards implements ShardView (the in-memory store is one shard).
func (s *Mem) NumShards() int { return 1 }

// ScanShard implements ShardView.
func (s *Mem) ScanShard(i int, fn func(*Record) error) error {
	if i != 0 {
		return fmt.Errorf("store: shard %d out of range for a Mem store", i)
	}
	return s.Scan(fn)
}

// ShardStamp implements ShardView (append count: Mem is append-only).
func (s *Mem) ShardStamp(i int) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return strconv.Itoa(len(s.recs)), nil
}

// NumShards implements ShardView.
func (s *Binary) NumShards() int { return s.shards }

// ShardStamp implements ShardView.
func (s *Binary) ShardStamp(i int) (string, error) { return fileStamp(s.binPath(i)) }

// ------------------------------------------------------- pull iterators

// errShardDisorder aborts a merge whose input shards are not sorted.
var errShardDisorder = errors.New("store: shard is not in domain order")

// recordIter pulls one shard's records in append order. The returned
// *Record is only valid until the following next call.
type recordIter interface {
	next() (*Record, bool, error)
	close() error
}

// shardIterStore is the internal seam sortedScan merges through; all
// shipped backends implement it.
type shardIterStore interface {
	shardIters() ([]recordIter, error)
}

// jsonlIter pulls records off one JSONL file.
type jsonlIter struct {
	f   *os.File
	sc  *bufio.Scanner
	rec Record
	// path and lineNo feed error messages.
	path   string
	lineNo int
}

func newJSONLIter(path string) (*jsonlIter, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &jsonlIter{path: path}, nil // iterates as empty
		}
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	return &jsonlIter{f: f, sc: sc, path: path}, nil
}

func (it *jsonlIter) next() (*Record, bool, error) {
	if it.sc == nil {
		return nil, false, nil
	}
	for it.sc.Scan() {
		it.lineNo++
		line := it.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		it.rec = Record{}
		if err := json.Unmarshal(line, &it.rec); err != nil {
			return nil, false, classifyLineErr(it.sc, it.path, it.lineNo, err)
		}
		return &it.rec, true, nil
	}
	if err := it.sc.Err(); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	return nil, false, nil
}

func (it *jsonlIter) close() error {
	if it.f == nil {
		return nil
	}
	return it.f.Close()
}

func (s *JSONL) shardIters() ([]recordIter, error) {
	it, err := newJSONLIter(s.path)
	if err != nil {
		return nil, err
	}
	return []recordIter{it}, nil
}

func (s *Sharded) shardIters() ([]recordIter, error) {
	out := make([]recordIter, 0, s.shards)
	for i := 0; i < s.shards; i++ {
		it, err := newJSONLIter(s.shardPath(i))
		if err != nil {
			closeIters(out)
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// memIter pulls records off a snapshot of the in-memory store.
type memIter struct {
	recs []Record
	pos  int
}

func (it *memIter) next() (*Record, bool, error) {
	if it.pos >= len(it.recs) {
		return nil, false, nil
	}
	r := &it.recs[it.pos]
	it.pos++
	return r, true, nil
}

func (it *memIter) close() error { return nil }

func (s *Mem) shardIters() ([]recordIter, error) {
	s.mu.RLock()
	recs := s.recs
	s.mu.RUnlock()
	return []recordIter{&memIter{recs: recs}}, nil
}

// binaryIter pulls frames off one segment file.
type binaryIter struct {
	f       *os.File
	r       *bufio.Reader
	path    string
	off     int64
	size    int64
	payload []byte
	rec     Record
}

func newBinaryIter(path string) (*binaryIter, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &binaryIter{path: path}, nil
		}
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: statting %s: %w", path, err)
	}
	return &binaryIter{f: f, r: bufio.NewReaderSize(f, 1<<20), path: path, size: st.Size()}, nil
}

func (it *binaryIter) next() (*Record, bool, error) {
	if it.f == nil || it.off >= it.size {
		return nil, false, nil
	}
	refuse := func(what string) error {
		return fmt.Errorf("store: %s: %s at offset %d: %w (run `aipan debug repair` to truncate to the last good record)",
			it.path, what, it.off, ErrTruncated)
	}
	var hdr [4]byte
	if it.size-it.off < int64(len(hdr)) {
		return nil, false, refuse("short frame header")
	}
	if _, err := io.ReadFull(it.r, hdr[:]); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if plen == 0 || plen > maxFramePayload {
		return nil, false, refuse(fmt.Sprintf("implausible frame length %d", plen))
	}
	if it.off+frameOverhead+plen > it.size {
		return nil, false, refuse("frame extends past end of file")
	}
	if int64(cap(it.payload)) < plen+4 {
		it.payload = make([]byte, plen+4)
	}
	it.payload = it.payload[:plen+4]
	if _, err := io.ReadFull(it.r, it.payload); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	body := it.payload[:plen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(it.payload[plen:]) {
		return nil, false, refuse("frame CRC mismatch")
	}
	if err := decodeRecord(body, &it.rec); err != nil {
		return nil, false, refuse(err.Error())
	}
	it.off += frameOverhead + plen
	return &it.rec, true, nil
}

func (it *binaryIter) close() error {
	if it.f == nil {
		return nil
	}
	return it.f.Close()
}

func (s *Binary) shardIters() ([]recordIter, error) {
	out := make([]recordIter, 0, s.shards)
	for i := 0; i < s.shards; i++ {
		it, err := newBinaryIter(s.binPath(i))
		if err != nil {
			closeIters(out)
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

func closeIters(iters []recordIter) {
	for _, it := range iters {
		_ = it.close()
	}
}

// -------------------------------------------------------- k-way merge

// mergeHead is one shard's current record in the merge heap.
type mergeHead struct {
	rec   *Record
	shard int
}

// mergeHeap orders heads by (domain, shard index) so ties are broken
// deterministically.
type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].rec.Domain != h[j].rec.Domain {
		return h[i].rec.Domain < h[j].rec.Domain
	}
	return h[i].shard < h[j].shard
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// sortedScan streams the store's records in ascending domain order
// with O(shards) memory: shards merge through a heap of their head
// records. If a shard turns out not to be domain-ordered the scan
// aborts with errShardDisorder (possibly after delivering records), and
// the caller falls back to materialize-and-sort; callers therefore must
// stage their output and restart it on that error. Stores that don't
// expose shard iterators take the materialize path directly.
func sortedScan(st Store, fn func(*Record) error) error {
	sis, ok := st.(shardIterStore)
	if !ok {
		return materializedScan(st, fn)
	}
	iters, err := sis.shardIters()
	if err != nil {
		return err
	}
	defer closeIters(iters)

	h := make(mergeHeap, 0, len(iters))
	prev := make([]string, len(iters)) // last domain seen per shard
	for i, it := range iters {
		rec, ok, err := it.next()
		if err != nil {
			return err
		}
		if ok {
			prev[i] = rec.Domain
			h = append(h, mergeHead{rec: rec, shard: i})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h[0]
		if err := fn(head.rec); err != nil {
			return err
		}
		rec, ok, err := iters[head.shard].next()
		if err != nil {
			return err
		}
		if !ok {
			heap.Pop(&h)
			continue
		}
		if rec.Domain < prev[head.shard] {
			return fmt.Errorf("%w: %q after %q in shard %d",
				errShardDisorder, rec.Domain, prev[head.shard], head.shard)
		}
		prev[head.shard] = rec.Domain
		h[0] = mergeHead{rec: rec, shard: head.shard}
		heap.Fix(&h, 0)
	}
	return nil
}

// ---------------------------------------------------- staged exporters

// exportStaged builds an export in a temp file next to path and renames
// it in on success, so readers never see a partial file. emit writes
// the whole export through the scan it is handed; it runs once with the
// constant-memory sortedScan and — only if that aborts because a shard
// turns out unsorted — once more, on a fresh temp file, with the
// materializing fallback.
func exportStaged(path string, emit func(w *bufio.Writer, scan scanFunc) error) error {
	do := func(scan scanFunc) error {
		tmp, err := os.CreateTemp(filepath.Dir(path), ".aipan-export-*")
		if err != nil {
			return fmt.Errorf("store: creating temp file: %w", err)
		}
		defer os.Remove(tmp.Name())
		w := bufio.NewWriter(tmp)
		if err := emit(w, scan); err != nil {
			_ = tmp.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("store: flushing: %w", err)
		}
		if err := tmp.Close(); err != nil {
			return fmt.Errorf("store: closing temp file: %w", err)
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			return fmt.Errorf("store: committing %s: %w", path, err)
		}
		return nil
	}
	err := do(sortedScan)
	if errors.Is(err, errShardDisorder) {
		return do(materializedScan)
	}
	return err
}

// scanFunc delivers a store's records in ascending domain order.
type scanFunc func(Store, func(*Record) error) error

// ExportAnnotationsCSV streams one CSV row per annotation, ordered by
// domain, without materializing the store — same bytes as
// WriteAnnotationsCSV over the domain-sorted record slice.
func ExportAnnotationsCSV(path string, st Store) error {
	return exportStaged(path, func(w *bufio.Writer, scan scanFunc) error {
		cw := csv.NewWriter(w)
		if err := cw.Write(annotationHeader); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		if err := scan(st, func(rec *Record) error {
			return writeAnnotationRows(cw, rec)
		}); err != nil {
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return fmt.Errorf("store: flushing csv: %w", err)
		}
		return nil
	})
}

// ExportDomainsCSV streams one CSV row per domain, ordered by domain,
// without materializing the store — same bytes as WriteDomainsCSV over
// the domain-sorted record slice.
func ExportDomainsCSV(path string, st Store) error {
	return exportStaged(path, func(w *bufio.Writer, scan scanFunc) error {
		cw := csv.NewWriter(w)
		if err := cw.Write(domainHeader); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		if err := scan(st, func(rec *Record) error {
			return writeDomainRow(cw, rec)
		}); err != nil {
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return fmt.Errorf("store: flushing csv: %w", err)
		}
		return nil
	})
}

// materializedScan is the sorted-scan fallback: load, sort, replay.
func materializedScan(st Store, fn func(*Record) error) error {
	var records []Record
	if err := st.Scan(func(r *Record) error {
		records = append(records, *r)
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Domain < records[j].Domain })
	for i := range records {
		if err := fn(&records[i]); err != nil {
			return err
		}
	}
	return nil
}
