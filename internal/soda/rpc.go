package soda

import "context"

// rpc is one row of the message table: how a server treats a request
// type and what it answers with.
type rpc struct {
	class opClass // epoch admission class
	resp  byte    // type of the answering frame; 0 when there is none
	// serve runs a unary request against the state machine and fills in
	// the response body; an error is sent back as an error frame. It is
	// nil for get-data and reader-done: they open and close a relay
	// stream, which is the connection's state (NetServer.openStream and
	// closeStream), not the state machine's.
	serve func(s *Server, req *request, resp *response) error
}

// rpcs is the message table, one row per client→server message type.
// The server dispatches every inbound frame through it (NetServer.serve),
// the loopback serves every blocking exchange from it (loopConn.call), and
// MuxConn.send reads the response type it must expect from it; the body
// layouts are in wire.go beside request and response.
var rpcs = [...]*rpc{
	msgGetTag: {opMint, msgTagResp, func(s *Server, req *request, resp *response) error {
		resp.tag = s.GetTag(req.key)
		return nil
	}},
	msgPutData: {opClient, msgAck, func(s *Server, req *request, resp *response) error {
		return s.PutData(req.key, req.tag, req.elem, req.vlen)
	}},
	msgGetData:    {opClient, msgData, nil},
	msgReaderDone: {opExempt, 0, nil},
	msgGetElem: {opDonor, msgElemResp, func(s *Server, req *request, resp *response) error {
		resp.tag, resp.elem, resp.vlen = s.getElem(req.key)
		return nil
	}},
	msgRepairPut: {opRepair, msgRepairResp, func(s *Server, req *request, resp *response) (err error) {
		resp.accepted, err = s.RepairPut(req.key, req.tag, req.elem, req.vlen)
		return err
	}},
	msgKeys: {opDonor, msgKeysResp, func(s *Server, req *request, resp *response) error {
		resp.keys = s.Keys()
		return nil
	}},
	msgReconfig: {opExempt, msgReconfigResp, func(s *Server, req *request, resp *response) (err error) {
		resp.status, err = s.Reconfig(req.op, req.target, req.n, req.k)
		return err
	}},
}

// admit is s's admission check for a request of this row stamped with
// epoch; an exempt row is never put to admit.
func (r *rpc) admit(s *Server, epoch uint64) *StaleEpochError {
	if r.class == opExempt {
		return nil
	}
	return s.admit(r.class, epoch)
}

// rpcFor returns typ's row, or nil when typ is not a request type.
func rpcFor(typ byte) *rpc {
	if int(typ) >= len(rpcs) {
		return nil
	}
	return rpcs[typ]
}

// transport is how a conn reaches its server for the blocking exchanges:
// call parks for the one answer to a unary request; stream opens a get-data
// registration, parking as the transport must, whose end comes once through
// op.take's waiter unless the read ends it first with endData.
type transport interface {
	call(ctx context.Context, req *request, resp *response) error
	stream(ctx context.Context, req *request, op stepOp, deliver func(Delivery)) (sub, error)
}

// rpcConn is the Conn body both transports share: every method that is the
// same on each builds its request, has t carry it, and reads its result out
// of the response. What differs stays with the transport: PutData (whether
// a handed-off element is adopted or freed) and the step forms, which do
// not come through here — an indirect call would move their arguments to
// the heap on the hottest path.
type rpcConn struct {
	idx   int
	epoch uint64
	t     transport
}

var (
	_ stepper = (*loopConn)(nil)
	_ stepper = (*MuxConn)(nil)
)

func (c *rpcConn) Index() int { return c.idx }

func (c *rpcConn) Epoch() uint64 { return c.epoch }

func (c *rpcConn) GetTag(ctx context.Context, key string) (Tag, error) {
	var resp response
	err := c.t.call(ctx, &request{typ: msgGetTag, epoch: c.epoch, key: key}, &resp)
	return resp.tag, err
}

func (c *rpcConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	var resp response
	err := c.t.call(ctx, &request{typ: msgGetElem, epoch: c.epoch, key: key}, &resp)
	return resp.tag, resp.elem, resp.vlen, err
}

func (c *rpcConn) RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error) {
	var resp response
	err := c.t.call(ctx, &request{typ: msgRepairPut, epoch: c.epoch, key: key, tag: t, elem: elem, vlen: vlen}, &resp)
	return resp.accepted, err
}

func (c *rpcConn) Keys(ctx context.Context) ([]string, error) {
	var resp response
	err := c.t.call(ctx, &request{typ: msgKeys, epoch: c.epoch}, &resp)
	return resp.keys, err
}

// Reconfig frames carry no epoch: they are what moves it.
func (c *rpcConn) Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	var resp response
	err := c.t.call(ctx, &request{typ: msgReconfig, epoch: epochNone, op: op, target: target, n: n, k: k}, &resp)
	return resp.status, err
}

// GetData holds a registration open until ctx ends, then ends it, or until
// the server ends it: with the cause, or — dropped by a hang — silently, as
// the server now is.
func (c *rpcConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	ended := make(chanWaiter, 1)
	s, err := c.t.stream(ctx, &request{typ: msgGetData, epoch: c.epoch, key: key, reader: readerID}, ended, deliver)
	if err != nil {
		return err
	}
	select {
	case a := <-ended:
		if a.err != nil {
			return a.err
		}
		<-ctx.Done()
	case <-ctx.Done():
		s.c.endData(s, key, readerID)
	}
	return nil
}
