// Package resultdb implements the custom search-result database of
// Section 5.2.2 of the Pocket Cloudlets paper (Figure 13): search
// results stored once each in a small, fixed number of plain-text
// files on flash, keyed by the hash of their web address.
//
// Each result is assigned to one of N files by hash modulo N. A file
// begins with a header line of (hash, offset, length) triples locating
// every record in the file body; records are appended at the end and
// the header is augmented. The file count trades retrieval time
// against flash fragmentation — few files mean long headers that are
// slow to read and parse, many files mean allocation slack — and the
// paper's sweep (Figure 12) picks 32 as the knee. Retrieval cost is
// modeled against the flash device (file open, page reads) plus a CPU
// charge for parsing header entries.
package resultdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pocketcloudlets/internal/flashsim"
)

// DefaultFiles is the paper's chosen database file count.
const DefaultFiles = 32

// DefaultHeaderParseCost is the modeled CPU time to parse one header
// triple on the prototype-class device.
const DefaultHeaderParseCost = 5 * time.Microsecond

// Config parameterizes a database.
type Config struct {
	// Files is the number of database files (Figure 12 sweeps 1..256).
	Files int
	// Prefix names the files in the flash store: "<prefix><i>.db".
	Prefix string
	// HeaderParseCost is the CPU cost per header entry parsed during
	// retrieval. Zero selects DefaultHeaderParseCost.
	HeaderParseCost time.Duration
}

// DB is the on-flash result database.
type DB struct {
	store *flashsim.FileStore
	cfg   Config
	// names precomputes the file names so the retrieval path never
	// formats strings. The slice is interned across databases (see
	// fileNames): a million-user fleet holds one database per user and
	// they all name their files identically.
	names []string
	// cache holds the parsed header and a no-copy view of the body for
	// each file touched so far, so repeated retrievals (the cache-hit
	// serve path) parse and allocate nothing. It is a map keyed by file
	// index, populated lazily, because a typical per-user database
	// touches only a handful of its files — an eager per-file array
	// costs ~2 KB per user at the default 32 files. Every database
	// write goes through install, which replaces the entry — with the
	// header a rewrite just built, or empty after a Put — and the
	// modeled latency is computed from the recorded header length, so
	// a cached retrieval charges exactly what an uncached one would.
	cache map[int]*fileCache
}

// fileCache is one file's parsed state. body aliases the store's
// backing slice, which is safe because install hands the store a
// whole new slice (never writes in place) and replaces this entry in
// the same step.
type fileCache struct {
	valid  bool
	exists bool
	hdr    header
	body   []byte
	hdrLen int // header line length including '\n', for latency
}

// New creates (or reopens) a database over the given flash store.
func New(store *flashsim.FileStore, cfg Config) (*DB, error) {
	if store == nil {
		return nil, fmt.Errorf("resultdb: store is required")
	}
	if cfg.Files <= 0 {
		return nil, fmt.Errorf("resultdb: file count must be positive, got %d", cfg.Files)
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "psdb-"
	}
	if cfg.HeaderParseCost <= 0 {
		cfg.HeaderParseCost = DefaultHeaderParseCost
	}
	db := &DB{store: store, cfg: cfg}
	db.names = fileNames(cfg.Prefix, cfg.Files)
	return db, nil
}

// nameTables interns the file-name slices shared by every database
// with the same prefix and file count — one table per configuration,
// not one per user.
var nameTables sync.Map // "prefix\x00files" -> []string

func fileNames(prefix string, files int) []string {
	key := fmt.Sprintf("%s\x00%d", prefix, files)
	if v, ok := nameTables.Load(key); ok {
		return v.([]string)
	}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d.db", prefix, i)
	}
	v, _ := nameTables.LoadOrStore(key, names)
	return v.([]string)
}

// cacheEntry returns file i's cache slot, creating it on first touch.
func (db *DB) cacheEntry(i int) *fileCache {
	if fc, ok := db.cache[i]; ok {
		return fc
	}
	if db.cache == nil {
		db.cache = make(map[int]*fileCache, 4)
	}
	fc := &fileCache{}
	db.cache[i] = fc
	return fc
}

// Files returns the configured file count.
func (db *DB) Files() int { return db.cfg.Files }

// FileOf returns the file index a result hash is assigned to: the
// remainder of the hash divided by the file count (Section 5.2.2).
func (db *DB) FileOf(resultHash uint64) int { return FileOf(resultHash, db.cfg.Files) }

// FileOf is DB.FileOf for a database of the given file count, so
// callers can lay records out by file before any database exists.
func FileOf(resultHash uint64, files int) int {
	return int(resultHash % uint64(files))
}

func (db *DB) fileName(i int) string { return db.names[i] }

// header is the parsed first line of a database file.
type header struct {
	entries []headerEntry
}

type headerEntry struct {
	hash        uint64
	off, length int
}

func (h *header) find(hash uint64) (headerEntry, bool) {
	for _, e := range h.entries {
		if e.hash == hash {
			return e, true
		}
	}
	return headerEntry{}, false
}

// appendHeader appends the header line of entries to dst:
// "hash,off,len;...\n" in lower-case hex without a prefix.
func appendHeader(dst []byte, entries []headerEntry) []byte {
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = strconv.AppendUint(dst, e.hash, 16)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, uint64(e.off), 16)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, uint64(e.length), 16)
	}
	return append(dst, '\n')
}

// headerLen is len(appendHeader(nil, entries)), computed without
// rendering so a file can be built in one exactly sized buffer.
func headerLen(entries []headerEntry) int {
	n := max(len(entries), 1) // the ';' separators and the '\n'
	for _, e := range entries {
		n += hexLen(e.hash) + hexLen(uint64(e.off)) + hexLen(uint64(e.length)) + 2
	}
	return n
}

func hexLen(x uint64) int { return max((bits.Len64(x)+3)/4, 1) }

func parseHeader(line []byte) (*header, error) {
	h := &header{}
	s := strings.TrimSuffix(string(line), "\n")
	if s == "" {
		return h, nil
	}
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(part, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("resultdb: malformed header triple %q", part)
		}
		hash, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header hash: %v", err)
		}
		off, err := strconv.ParseInt(fields[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header offset: %v", err)
		}
		length, err := strconv.ParseInt(fields[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header length: %v", err)
		}
		h.entries = append(h.entries, headerEntry{hash: hash, off: int(off), length: int(length)})
	}
	return h, nil
}

// loadFile returns one database file's parsed header, raw body, and
// the modeled latency of reading the header portion (open + header
// pages + per-entry parse CPU). Body latency charging is left to the
// caller since most operations touch only one record. The parse is
// served from the per-file cache when valid; the latency formula is
// evaluated either way, so caching never changes modeled costs.
func (db *DB) loadFile(i int) (*header, []byte, time.Duration, error) {
	fc := db.cacheEntry(i)
	if !fc.valid {
		if err := db.fillCache(i); err != nil {
			return nil, nil, 0, err
		}
	}
	if !fc.exists {
		return &header{}, nil, db.store.Device().OpenCost(), nil
	}
	// Model: open the file, read the header pages, parse each entry.
	lat := db.store.Device().OpenCost() +
		db.store.Device().ReadCost(fc.hdrLen) +
		time.Duration(len(fc.hdr.entries))*db.cfg.HeaderParseCost
	return &fc.hdr, fc.body, lat, nil
}

// fillCache (re)parses file i into its cache slot.
func (db *DB) fillCache(i int) error {
	fc := db.cacheEntry(i)
	name := db.fileName(i)
	data, ok := db.store.PeekRef(name)
	if !ok {
		*fc = fileCache{valid: true}
		return nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("resultdb: file %q has no header line", name)
	}
	h, err := parseHeader(data[:nl+1])
	if err != nil {
		return err
	}
	*fc = fileCache{valid: true, exists: true, hdr: *h, body: data[nl+1:], hdrLen: nl + 1}
	return nil
}

// Put stores a record under its result hash, appending it to its file
// and augmenting the header. Storing an existing hash again is a no-op
// (results are shared across queries and stored once — the paper's
// factor-of-8 storage saving). It returns the modeled flash latency.
func (db *DB) Put(resultHash uint64, record []byte) (time.Duration, error) {
	i := db.FileOf(resultHash)
	h, body, lat, err := db.loadFile(i)
	if err != nil {
		return 0, err
	}
	if _, exists := h.find(resultHash); exists {
		return lat, nil
	}
	// Build the new file in fresh slices: h and body alias the file
	// cache and the store's backing array.
	entries := make([]headerEntry, 0, len(h.entries)+1)
	entries = append(append(entries, h.entries...),
		headerEntry{hash: resultHash, off: len(body), length: len(record)})
	content := appendHeader(make([]byte, 0, headerLen(entries)+len(body)+len(record)), entries)
	hdrLen := len(content)
	content = append(append(content, body...), record...)
	// The header line changes size, so it is rewritten in place
	// (charged as a flash rewrite); the record itself is an append.
	lat += db.store.Device().RewriteCost(hdrLen) + db.store.Device().WriteCost(len(record))
	// Keep no parse of the new header: a personal cache appends to
	// files it may never read again, and a fleet holding every such
	// header costs ~250 B per user (DESIGN.md, "Result-database write
	// path"). The next read of the file parses it.
	db.install(i, content, fileCache{})
	return lat, nil
}

// install makes content file i's contents without charging device cost
// (callers charge their modeled costs explicitly) and replaces the
// file's cache entry with fc in the same step. The store takes
// ownership of content. It is the single funnel every database write
// goes through.
func (db *DB) install(i int, content []byte, fc fileCache) {
	db.store.ReplaceSilently(db.fileName(i), content)
	*db.cacheEntry(i) = fc
}

// Get retrieves the record stored under the result hash, with the
// modeled latency: open + header read + header parse + record pages.
// The returned slice is a copy; use GetView on paths that must not
// allocate.
func (db *DB) Get(resultHash uint64) ([]byte, time.Duration, error) {
	rec, lat, err := db.GetView(resultHash)
	if err != nil {
		return nil, lat, err
	}
	return append([]byte(nil), rec...), lat, nil
}

// GetView is Get without the copy: the returned slice is a read-only
// view into the database's cached file body and is valid only until
// the next write to the record's file. Callers must not modify or
// retain it.
func (db *DB) GetView(resultHash uint64) ([]byte, time.Duration, error) {
	i := db.FileOf(resultHash)
	h, body, lat, err := db.loadFile(i)
	if err != nil {
		return nil, 0, err
	}
	e, ok := h.find(resultHash)
	if !ok {
		return nil, lat, fmt.Errorf("resultdb: result %x not found in file %d", resultHash, i)
	}
	if e.off < 0 || e.off+e.length > len(body) {
		return nil, lat, fmt.Errorf("resultdb: corrupt header entry for %x", resultHash)
	}
	lat += db.store.Device().ReadCost(e.length)
	return body[e.off : e.off+e.length], lat, nil
}

// Contains reports whether a record exists, without charging latency
// (existence is known from the DRAM hash table in the real system).
func (db *DB) Contains(resultHash uint64) bool {
	h, _, ok, err := db.peekFile(db.FileOf(resultHash))
	if err != nil || !ok {
		return false
	}
	_, found := h.find(resultHash)
	return found
}

// peekFile returns a file's cached parse without device-cost
// accounting. ok reports whether the file exists.
func (db *DB) peekFile(i int) (h *header, body []byte, ok bool, err error) {
	fc := db.cacheEntry(i)
	if !fc.valid {
		if err := db.fillCache(i); err != nil {
			return nil, nil, false, err
		}
	}
	if !fc.exists {
		return nil, nil, false, nil
	}
	return &fc.hdr, fc.body, true, nil
}

// Hashes returns every stored result hash in ascending order.
func (db *DB) Hashes() []uint64 {
	var out []uint64
	for i := 0; i < db.cfg.Files; i++ {
		h, _, ok, err := db.peekFile(i)
		if err != nil || !ok {
			continue
		}
		for _, e := range h.entries {
			out = append(out, e.hash)
		}
	}
	slices.Sort(out)
	return out
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	n := 0
	for i := 0; i < db.cfg.Files; i++ {
		if h, _, ok, err := db.peekFile(i); err == nil && ok {
			n += len(h.entries)
		}
	}
	return n
}

// Record is one database record: the result hash it is stored under
// and its bytes.
type Record struct {
	Hash uint64
	Data []byte
}

// ReplaceFile atomically replaces one database file's full record set
// — the patch-application primitive of the Section 5.4 update cycle.
// It returns the modeled flash latency of rewriting the file.
func (db *DB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	recs := make([]Record, 0, len(records))
	for hash, rec := range records {
		recs = append(recs, Record{Hash: hash, Data: rec})
	}
	if err := db.sortRecords(i, recs); err != nil {
		return 0, err
	}
	return db.rewrite(i, nil, nil, recs)
}

// MergeFile rewrites file i as the union of its stored records and
// recs, in ascending hash order, with a record in recs replacing a
// stored one of the same hash — the bulk-load primitive of a cache
// preload. recs is sorted in place unless it is already in ascending
// hash order, so sorted input is only read and may be shared by
// concurrent calls on different databases. Every record must belong in
// file i and appear once. It returns the modeled flash latency: one
// open plus a rewrite of the whole file, as ReplaceFile charges.
func (db *DB) MergeFile(i int, recs []Record) (time.Duration, error) {
	if err := db.sortRecords(i, recs); err != nil {
		return 0, err
	}
	h, body, ok, err := db.peekFile(i)
	if err != nil {
		return 0, err
	}
	var stored []headerEntry
	if ok {
		stored = h.entries
	}
	return db.rewrite(i, stored, body, recs)
}

// sortRecords sorts recs by hash, writing nothing when they are
// already sorted, and checks that they all belong in file i, once each.
func (db *DB) sortRecords(i int, recs []Record) error {
	if i < 0 || i >= db.cfg.Files {
		return fmt.Errorf("resultdb: file index %d out of range [0, %d)", i, db.cfg.Files)
	}
	if !slices.IsSortedFunc(recs, compareRecords) {
		slices.SortFunc(recs, compareRecords)
	}
	for k, r := range recs {
		if db.FileOf(r.Hash) != i {
			return fmt.Errorf("resultdb: record %x does not belong in file %d", r.Hash, i)
		}
		if k > 0 && recs[k-1].Hash == r.Hash {
			return fmt.Errorf("resultdb: record %x given twice for file %d", r.Hash, i)
		}
	}
	return nil
}

// rewrite is the sorted merge behind every whole-file write: it
// installs file i as the hash-ordered union of base (entries locating
// records in body, in any order, hashes unique) and recs (sorted by
// hash, unique), recs winning on an equal hash. Each record is copied
// once, into the buffer the store takes over. The charge is one open plus
// a rewrite of the whole file.
func (db *DB) rewrite(i int, base []headerEntry, body []byte, recs []Record) (time.Duration, error) {
	for _, e := range base {
		if e.off < 0 || e.off+e.length > len(body) {
			return 0, fmt.Errorf("resultdb: corrupt entry %x in file %d", e.hash, i)
		}
	}
	// Put appends out of hash order; the cached entries must not be
	// reordered in place, so sort a copy.
	if !slices.IsSortedFunc(base, compareEntries) {
		base = slices.Clone(base)
		slices.SortFunc(base, compareEntries)
	}
	entries := make([]headerEntry, 0, len(base)+len(recs))
	bodyLen := 0
	mergeRecords(base, body, recs, func(hash uint64, rec []byte) {
		entries = append(entries, headerEntry{hash: hash, off: bodyLen, length: len(rec)})
		bodyLen += len(rec)
	})
	content := appendHeader(make([]byte, 0, headerLen(entries)+bodyLen), entries)
	hdrLen := len(content)
	mergeRecords(base, body, recs, func(_ uint64, rec []byte) {
		content = append(content, rec...)
	})
	lat := db.store.Device().OpenCost() + db.store.Device().RewriteCost(len(content))
	// Cache the header just built, so the next read parses nothing.
	db.install(i, content, fileCache{
		valid:  true,
		exists: true,
		hdr:    header{entries: entries},
		body:   content[hdrLen:],
		hdrLen: hdrLen,
	})
	return lat, nil
}

// mergeRecords calls fn for each record of the hash-ordered union of
// the sorted base entries (locating records in body) and the sorted
// recs, taking the recs record on an equal hash.
func mergeRecords(base []headerEntry, body []byte, recs []Record, fn func(hash uint64, rec []byte)) {
	j := 0
	for _, r := range recs {
		for ; j < len(base) && base[j].hash <= r.Hash; j++ {
			if e := base[j]; e.hash < r.Hash {
				fn(e.hash, body[e.off:e.off+e.length])
			}
		}
		fn(r.Hash, r.Data)
	}
	for _, e := range base[j:] {
		fn(e.hash, body[e.off:e.off+e.length])
	}
}

func compareEntries(a, b headerEntry) int { return cmp.Compare(a.hash, b.hash) }

func compareRecords(a, b Record) int { return cmp.Compare(a.Hash, b.Hash) }

// Delete removes the record stored under resultHash, rewriting its
// database file without it. It reports whether the record existed and
// the modeled flash latency of the rewrite (zero when absent). The
// fleet layer uses this to reclaim personal-cache flash under a
// storage budget.
func (db *DB) Delete(resultHash uint64) (time.Duration, bool, error) {
	f := db.FileOf(resultHash)
	h, body, ok, err := db.peekFile(f)
	if err != nil || !ok {
		return 0, false, err
	}
	k := slices.IndexFunc(h.entries, func(e headerEntry) bool { return e.hash == resultHash })
	if k < 0 {
		return 0, false, nil
	}
	base := slices.Delete(slices.Clone(h.entries), k, k+1)
	lat, err := db.rewrite(f, base, body, nil)
	if err != nil {
		return 0, false, err
	}
	return lat, true, nil
}

// RecordsOf returns the records of one file keyed by hash — the
// server-side read when computing patches.
func (db *DB) RecordsOf(i int) (map[uint64][]byte, error) {
	out := make(map[uint64][]byte)
	h, body, ok, err := db.peekFile(i)
	if err != nil {
		return nil, err
	}
	if !ok {
		return out, nil
	}
	for _, e := range h.entries {
		if e.off < 0 || e.off+e.length > len(body) {
			return nil, fmt.Errorf("resultdb: corrupt entry %x in file %d", e.hash, i)
		}
		out[e.hash] = append([]byte(nil), body[e.off:e.off+e.length]...)
	}
	return out, nil
}

// LogicalBytes is the total size of the database files.
func (db *DB) LogicalBytes() int64 {
	var n int64
	for i := 0; i < db.cfg.Files; i++ {
		if sz, err := db.store.Size(db.fileName(i)); err == nil {
			n += int64(sz)
		}
	}
	return n
}

// AllocatedBytes is the flash space the database occupies including
// allocation slack.
func (db *DB) AllocatedBytes() int64 {
	var n int64
	for i := 0; i < db.cfg.Files; i++ {
		if sz, err := db.store.Size(db.fileName(i)); err == nil {
			n += db.store.Device().AllocatedBytes(sz)
		}
	}
	return n
}

// FragmentationBytes is the allocation slack of the database — the
// quantity that grows with the file count in the Figure 12 tradeoff.
func (db *DB) FragmentationBytes() int64 {
	return db.AllocatedBytes() - db.LogicalBytes()
}
