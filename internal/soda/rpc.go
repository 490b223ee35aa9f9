package soda

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
// The server dispatches every inbound frame through it (NetServer.serve)
// and MuxConn.call reads the response type it must expect from it; the
// body layouts are in wire.go beside request and response.
var rpcs = [...]*rpc{
	msgGetTag: {opClient, msgTagResp, func(s *Server, req *request, resp *response) error {
		resp.tag = s.GetTag(req.key)
		return nil
	}},
	msgPutData: {opClient, msgAck, func(s *Server, req *request, resp *response) error {
		return s.putData(req.key, req.tag, req.elem, req.vlen)
	}},
	msgGetData:    {opClient, msgData, nil},
	msgReaderDone: {opExempt, 0, nil},
	msgGetElem: {opDonor, msgElemResp, func(s *Server, req *request, resp *response) error {
		resp.tag, resp.elem, resp.vlen = s.getElem(req.key)
		return nil
	}},
	msgRepairPut: {opRepair, msgRepairResp, func(s *Server, req *request, resp *response) (err error) {
		resp.accepted, err = s.repairPut(req.key, req.tag, req.elem, req.vlen)
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

// rpcFor returns typ's row, or nil when typ is not a request type.
func rpcFor(typ byte) *rpc {
	if int(typ) >= len(rpcs) {
		return nil
	}
	return rpcs[typ]
}
