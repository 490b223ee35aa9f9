package poolsafe

import "sync"

var pool sync.Pool

type frame struct{ b []byte }

func putFrame(f *frame) { pool.Put(f) }

type scratch struct{ n int }

func (s *scratch) release(p *sync.Pool) { p.Put(s) }

func useAfterPut(f *frame) int {
	pool.Put(f)
	return len(f.b) // want `returned to the pool`
}

func doublePut(f *frame) {
	pool.Put(f)
	pool.Put(f) // want `returned to the pool`
}

func helperPut(f *frame) {
	putFrame(f)
	f.b = nil // want `returned to the pool`
}

func releaseMethod(s *scratch) int {
	s.release(&pool)
	return s.n // want `returned to the pool`
}

func putThenReturn(f *frame) {
	if f.b == nil {
		pool.Put(f)
		return
	}
	f.b = f.b[:0] // ok: the put path returned before reaching here
}

func reassignKills(f *frame) int {
	pool.Put(f)
	f = &frame{}
	return len(f.b) // ok: f was rebound to a fresh value
}

func deferPut(f *frame) int {
	defer pool.Put(f)
	return len(f.b) // ok: a deferred put runs after every lexical use
}

func branchPutThenUse(f *frame, cold bool) int {
	if cold {
		pool.Put(f)
	}
	return len(f.b) // want `returned to the pool`
}

// A slice variable passed as elem to a Conn's PutData may be the
// conn's from the call on.

type Conn interface {
	PutData(key string, elem []byte, vlen int) error
	RepairPut(key string, elem []byte, vlen int) (bool, error)
}

type loop struct{}

func (loop) PutData(key string, elem []byte, vlen int) error           { return nil }
func (loop) RepairPut(key string, elem []byte, vlen int) (bool, error) { return true, nil }

// store has a PutData that borrows, like soda.Server's: it is not a Conn.
type store struct{}

func (store) PutData(key string, elem []byte, vlen int) {}

func putDataThenUse(c Conn, elem []byte) byte {
	if err := c.PutData("k", elem, len(elem)); err != nil {
		return 0
	}
	return elem[0] // want `returned to the pool at .*Conn.PutData`
}

func putDataAssigned(c loop, elem []byte) int {
	err := c.PutData("k", elem, len(elem))
	if err != nil {
		return 0
	}
	return len(elem) // want `returned to the pool at .*Conn.PutData`
}

func putDataBare(c Conn, elem []byte) {
	c.PutData("k", elem, len(elem))
	clear(elem) // want `returned to the pool`
}

func putDataFresh(c Conn, elem []byte) {
	c.PutData("k", elem, len(elem))
	elem = make([]byte, 8)
	c.PutData("k", elem, len(elem)) // ok: a fresh buffer each time
}

func repairPutBorrows(c Conn, elem []byte) byte {
	c.RepairPut("k", elem, len(elem))
	return elem[0] // ok: RepairPut borrows; retries re-send the same slice
}

func serverPutDataBorrows(s store, elem []byte) byte {
	s.PutData("k", elem, len(elem))
	return elem[0] // ok: not a Conn; the server copies what it keeps
}

func putDataNotAVariable(c Conn, shards [][]byte) int {
	c.PutData("k", shards[0], len(shards[0]))
	return len(shards[0]) // ok: only a plain variable is tracked
}
