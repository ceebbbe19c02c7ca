package resultdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"pocketcloudlets/internal/flashsim"
)

// refDB is the map-based write path the sorted merge replaced, kept as
// the reference the merge must match byte for byte and charge for
// charge: every rewrite copies the file's records into a map, adds the
// new ones, sorts the keys and renders the header with fmt. It parses
// a file's header on every access; the latency formulas are the
// database's own, so a cached parse and a fresh one charge the same.
type refDB struct {
	store *flashsim.FileStore
	files int
	names []string
}

func newRefDB(store *flashsim.FileStore, files int) *refDB {
	return &refDB{store: store, files: files, names: fileNames("psdb-", files)}
}

func (r *refDB) fileOf(hash uint64) int { return int(hash % uint64(r.files)) }

func refSerialize(entries []headerEntry) []byte {
	var b bytes.Buffer
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%x,%x,%x", e.hash, e.off, e.length)
	}
	b.WriteByte('\n')
	return b.Bytes()
}

// parse returns file i's header, body and header length, or ok=false
// when the file does not exist.
func (r *refDB) parse(i int) (h *header, body []byte, hdrLen int, ok bool) {
	data, ok := r.store.Peek(r.names[i])
	if !ok {
		return &header{}, nil, 0, false
	}
	nl := bytes.IndexByte(data, '\n')
	h, err := parseHeader(data[:nl+1])
	if err != nil {
		panic(err)
	}
	return h, data[nl+1:], nl + 1, true
}

func (r *refDB) loadFile(i int) (*header, []byte, time.Duration) {
	dev := r.store.Device()
	h, body, hdrLen, ok := r.parse(i)
	if !ok {
		return h, nil, dev.OpenCost()
	}
	lat := dev.OpenCost() + dev.ReadCost(hdrLen) + time.Duration(len(h.entries))*DefaultHeaderParseCost
	return h, body, lat
}

func (r *refDB) Put(hash uint64, record []byte) time.Duration {
	i := r.fileOf(hash)
	h, body, lat := r.loadFile(i)
	if _, ok := h.find(hash); ok {
		return lat
	}
	h.entries = append(h.entries, headerEntry{hash: hash, off: len(body), length: len(record)})
	hdr := refSerialize(h.entries)
	lat += r.store.Device().RewriteCost(len(hdr)) + r.store.Device().WriteCost(len(record))
	r.store.ReplaceSilently(r.names[i], append(append(hdr, body...), record...))
	return lat
}

func (r *refDB) GetView(hash uint64) ([]byte, time.Duration, error) {
	h, body, lat := r.loadFile(r.fileOf(hash))
	e, ok := h.find(hash)
	if !ok {
		return nil, lat, fmt.Errorf("not found")
	}
	lat += r.store.Device().ReadCost(e.length)
	return body[e.off : e.off+e.length], lat, nil
}

func (r *refDB) RecordsOf(i int) map[uint64][]byte {
	out := make(map[uint64][]byte)
	h, body, _, _ := r.parse(i)
	for _, e := range h.entries {
		out[e.hash] = append([]byte(nil), body[e.off:e.off+e.length]...)
	}
	return out
}

func (r *refDB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	if i < 0 || i >= r.files {
		return 0, fmt.Errorf("file index %d out of range", i)
	}
	hashes := make([]uint64, 0, len(records))
	for hash := range records {
		if r.fileOf(hash) != i {
			return 0, fmt.Errorf("record %x does not belong in file %d", hash, i)
		}
		hashes = append(hashes, hash)
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	var entries []headerEntry
	var body []byte
	for _, hash := range hashes {
		entries = append(entries, headerEntry{hash: hash, off: len(body), length: len(records[hash])})
		body = append(body, records[hash]...)
	}
	hdr := refSerialize(entries)
	lat := r.store.Device().OpenCost() + r.store.Device().RewriteCost(len(hdr)+len(body))
	r.store.ReplaceSilently(r.names[i], append(hdr, body...))
	return lat, nil
}

// Merge is the old Cache.Preload step for one file: the stored records
// plus recs, recs winning on an equal hash.
func (r *refDB) Merge(i int, recs []Record) (time.Duration, error) {
	all := r.RecordsOf(i)
	for _, rec := range recs {
		all[rec.Hash] = rec.Data
	}
	return r.ReplaceFile(i, all)
}

func (r *refDB) Delete(hash uint64) (time.Duration, bool) {
	i := r.fileOf(hash)
	recs := r.RecordsOf(i)
	if _, ok := recs[hash]; !ok {
		return 0, false
	}
	delete(recs, hash)
	lat, err := r.ReplaceFile(i, recs)
	if err != nil {
		panic(err)
	}
	return lat, true
}

func (r *refDB) Hashes() []uint64 {
	var out []uint64
	for i := 0; i < r.files; i++ {
		h, _, _, _ := r.parse(i)
		for _, e := range h.entries {
			out = append(out, e.hash)
		}
	}
	slices.Sort(out)
	return out
}

// diffFiles is the file count of the differential runs: few files, so
// operations keep landing on files that already hold records.
const diffFiles = 4

// diffHash maps an operation byte onto a pool of 32 hashes spread over
// the diffFiles files. The high bits make hashes differ in length in
// the hex header.
func diffHash(b byte) uint64 {
	k := uint64(b % 32)
	return k<<(4*(k%13)) | k
}

// diffHashIn is diffHash restricted to the hashes of file f.
func diffHashIn(f int, b byte) uint64 {
	return diffHash(byte(diffFiles*(int(b)%8) + f))
}

// diffRecord is the step-th operation's version of hash's record, with
// n%48 bytes of payload, so a rewrite of the same hash carries new
// content; zero payload gives an empty record.
func diffRecord(hash uint64, step int, n byte) []byte {
	if n%48 == 0 {
		return []byte{}
	}
	return append([]byte(fmt.Sprintf("%x@%d:", hash, step)), bytes.Repeat([]byte{'a' + byte(step%26)}, int(n%48))...)
}

// runDifferential decodes ops into a sequence of Put, MergeFile,
// Delete, ReplaceFile, GetView and reopen operations, runs it on a
// database and on the map-based reference over identically jittered
// devices, and reports the first difference in a returned latency or
// error, a record's bytes, a file's bytes, Hashes, Len or the device
// statistics. Each operation takes three bytes: kind, operand, size.
func runDifferential(t *testing.T, ops []byte) {
	t.Helper()
	params := flashsim.Params{JitterFrac: 0.12, Seed: 7}
	store := flashsim.NewFileStore(flashsim.NewDevice(params))
	refStore := flashsim.NewFileStore(flashsim.NewDevice(params))
	db, err := New(store, Config{Files: diffFiles})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDB(refStore, diffFiles)
	for step := 0; step+3 <= len(ops); step += 3 {
		kind, x, n := ops[step], ops[step+1], ops[step+2]
		var what string
		var lat, refLat time.Duration
		var gotErr, refErr error
		switch kind % 6 {
		case 0:
			h := diffHash(x)
			what = fmt.Sprintf("Put(%x)", h)
			rec := diffRecord(h, step, n)
			lat, gotErr = db.Put(h, rec)
			refLat = ref.Put(h, rec)
		case 1, 2:
			// A preload's records for one file: first seen wins among
			// repeated hashes, as Cache.Preload deduplicates.
			f := int(x) % diffFiles
			var recs []Record
			for k := 0; k < int(n%7); k++ {
				h := diffHashIn(f, x/4+byte(k)*n)
				if !slices.ContainsFunc(recs, func(r Record) bool { return r.Hash == h }) {
					recs = append(recs, Record{Hash: h, Data: diffRecord(h, step+k, n+byte(k))})
				}
			}
			what = fmt.Sprintf("MergeFile(%d, %d records)", f, len(recs))
			refLat, refErr = ref.Merge(f, recs)
			lat, gotErr = db.MergeFile(f, recs)
		case 3:
			h := diffHash(x)
			what = fmt.Sprintf("Delete(%x)", h)
			var ok, refOK bool
			lat, ok, gotErr = db.Delete(h)
			refLat, refOK = ref.Delete(h)
			if ok != refOK {
				t.Fatalf("step %d %s: existed %v, reference %v", step, what, ok, refOK)
			}
		case 4:
			f := int(x) % diffFiles
			recs := map[uint64][]byte{}
			for k := 0; k < int(n%5); k++ {
				h := diffHashIn(f, x+byte(k))
				recs[h] = diffRecord(h, step+k, n)
			}
			if n&0x80 != 0 {
				// A record of another file: both sides must refuse it
				// before touching the device.
				h := diffHashIn((f+1)%diffFiles, n)
				recs[h] = diffRecord(h, step, n)
			}
			what = fmt.Sprintf("ReplaceFile(%d, %d records)", f, len(recs))
			lat, gotErr = db.ReplaceFile(f, recs)
			refLat, refErr = ref.ReplaceFile(f, recs)
		case 5:
			if n%4 == 0 {
				// Reopen: a fresh database parses the stored headers
				// instead of reusing the ones its writes installed.
				what = "reopen"
				if db, err = New(store, Config{Files: diffFiles}); err != nil {
					t.Fatal(err)
				}
				break
			}
			h := diffHash(x)
			what = fmt.Sprintf("GetView(%x)", h)
			var rec, refRec []byte
			rec, lat, gotErr = db.GetView(h)
			refRec, refLat, refErr = ref.GetView(h)
			if !bytes.Equal(rec, refRec) {
				t.Fatalf("step %d %s: record %q, reference %q", step, what, rec, refRec)
			}
		}
		if (gotErr != nil) != (refErr != nil) {
			t.Fatalf("step %d %s: error %v, reference error %v", step, what, gotErr, refErr)
		}
		if lat != refLat {
			t.Fatalf("step %d %s: latency %v, reference %v", step, what, lat, refLat)
		}
		for _, name := range ref.names {
			got, gotOK := store.Peek(name)
			want, wantOK := refStore.Peek(name)
			if gotOK != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("step %d %s: file %s is\n%q\nreference\n%q", step, what, name, got, want)
			}
		}
		if got, want := db.Hashes(), ref.Hashes(); !slices.Equal(got, want) {
			t.Fatalf("step %d %s: Hashes %x, reference %x", step, what, got, want)
		}
		if got, want := db.Len(), len(ref.Hashes()); got != want {
			t.Fatalf("step %d %s: Len %d, reference %d", step, what, got, want)
		}
		if got, want := store.Device().Stats(), refStore.Device().Stats(); got != want {
			t.Fatalf("step %d %s: device stats %+v, reference %+v", step, what, got, want)
		}
	}
}

// TestWritePathMatchesMapReference runs random operation sequences —
// Put appends leaving headers out of hash order, merges overlapping
// stored hashes, deletes, whole-file replacements, reads and reopens —
// against the map-based reference.
func TestWritePathMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		ops := make([]byte, 3*(20+r.Intn(60)))
		r.Read(ops)
		t.Run(fmt.Sprint(seq), func(t *testing.T) { runDifferential(t, ops) })
	}
}

// FuzzResultDBWrites is TestWritePathMatchesMapReference over fuzzed
// operation sequences; testdata/fuzz/FuzzResultDBWrites holds the seed
// corpus the regular test run replays.
func FuzzResultDBWrites(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			t.Skip("sequence too long")
		}
		runDifferential(t, ops)
	})
}
