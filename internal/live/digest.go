package live

import "roads/internal/wire"

// The hashes behind "send a digest of what the peer should already
// hold; ship content only on mismatch". They are compared only between two
// servers running the same code and are never stored across restarts, so
// their exact values are free to change with the code. None of them returns
// zero: on the wire zero means "I hold nothing".

// mix64 is the splitmix64 finalizer. FNV's last step is a multiply, which
// leaves its low bits weak; setDigest adds hashes together, so each one is
// spread over all 64 bits first.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nonZero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// depHasher is FNV-64a over a sequence of strings and integers.
type depHasher struct{ h uint64 }

func newDepHasher() depHasher { return depHasher{h: 14695981039346656037} } // FNV-64a offset

func (d *depHasher) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * 1099511628211
	}
	d.h = (d.h ^ 0xff) * 1099511628211 // terminator: "ab","c" ≠ "a","bc"
}

func (d *depHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *depHasher) redirects(rds []wire.RedirectInfo) {
	d.u64(uint64(len(rds)))
	for _, rd := range rds {
		d.str(rd.ID)
		d.str(rd.Addr)
		d.u64(rd.Records)
		d.redirects(rd.Alternates)
	}
}

// kidsHash hashes a report's children, which the reporter remembers acked.
func kidsHash(kids []wire.RedirectInfo) uint64 {
	h := newDepHasher()
	h.redirects(kids)
	return nonZero(h.h)
}

// replicaMeta hashes the routing metadata of a push entry: everything a full
// entry carries besides the summary and its version. A stored replica's
// metadata never changes (a new full entry replaces the replica), so the
// holder hashes it once, when the replica arrives.
func replicaMeta(ancestor bool, level int, addr string, fallbacks []wire.RedirectInfo) uint64 {
	h := newDepHasher()
	if ancestor {
		h.u64(1)
	} else {
		h.u64(0)
	}
	h.u64(uint64(level))
	h.str(addr)
	h.redirects(fallbacks)
	return h.h
}

// replicaTag is an entry's identity: its metadata hash and the content
// version of its one summary. Two entries for one origin with equal tags
// would store identical replicas, so a receiver holding the tag needs
// nothing resent.
func replicaTag(meta, version uint64) uint64 {
	h := newDepHasher()
	h.u64(meta)
	h.u64(version)
	return nonZero(h.h)
}

// setDigest folds a set of (id, tag) pairs into its size and one 64-bit
// value. The fold is a sum of per-pair hashes, so it does not depend on the
// order the pairs arrive in — a parent walks its children and replica map,
// the child its own replica map, and neither sorts — and a pair can be taken
// back out, which gives each child's set (everything but the child itself)
// from one pass over all of them.
type setDigest struct {
	sum uint64
	n   int
}

func pairHash(id string, tag uint64) uint64 {
	h := newDepHasher()
	h.str(id)
	h.u64(tag)
	return mix64(h.h)
}

func (d *setDigest) add(id string, tag uint64) {
	d.sum += pairHash(id, tag)
	d.n++
}

func (d setDigest) without(id string, tag uint64) setDigest {
	return setDigest{sum: d.sum - pairHash(id, tag), n: d.n - 1}
}

// addSibling folds one sibling of an ancestry (ID and address).
func (d *setDigest) addSibling(id, addr string) {
	h := newDepHasher()
	h.str(addr)
	d.add(id, h.h)
}

// ancestryHash hashes the ancestry a report ack can carry: the parent's root
// path, the addresses along it, and the child's siblings folded by
// addSibling. The parent computes it over what it would send, the child
// over what it holds; equal hashes mean the content would change nothing.
func ancestryHash(path, addrs []string, siblings setDigest) uint64 {
	h := newDepHasher()
	h.u64(uint64(len(path)))
	for _, id := range path {
		h.str(id)
	}
	h.u64(uint64(len(addrs)))
	for _, a := range addrs {
		h.str(a)
	}
	h.u64(uint64(siblings.n))
	h.u64(siblings.sum)
	return nonZero(h.h)
}
