package sfcd

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// RawConn speaks the frame protocol over a bare TCP connection — the
// raw-wire tests' stand-in for a Client, so they can send what a Client
// never would (reserved ids, unknown opcodes, broken frames) and see
// exactly what the server answers. It lives in a _test file of package
// sfcd so the external test package can use the unexported codec.
type RawConn struct {
	net.Conn
	t     testing.TB
	br    *bufio.Reader
	frame []byte
}

// DialRaw connects to addr; the connection closes with the test and
// every read is bounded so a missing answer fails instead of hanging.
func DialRaw(t testing.TB, addr string) *RawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &RawConn{Conn: conn, t: t, br: bufio.NewReader(conn)}
}

// RequestFrame is the wire form of req.
func RequestFrame(req Request) []byte {
	return appendFrame(nil, req.ID, appendRequest(nil, &req))
}

// Send writes raw bytes — a whole frame from RequestFrame, or any
// fragment or corruption of one.
func (c *RawConn) Send(b []byte) {
	c.t.Helper()
	if _, err := c.Write(b); err != nil {
		c.t.Fatal(err)
	}
}

// Recv reads and decodes the next response frame.
func (c *RawConn) Recv() (Response, error) {
	var resp Response
	var err error
	if c.frame, err = readFrame(c.br, c.frame); err != nil {
		return resp, err
	}
	err = decodeResponse(c.frame, &resp)
	return resp, err
}

// Do sends one request and returns its response frame.
func (c *RawConn) Do(req Request) Response {
	c.t.Helper()
	c.Send(RequestFrame(req))
	resp, err := c.Recv()
	if err != nil {
		c.t.Fatalf("no response to %s request %d: %v", req.Op, req.ID, err)
	}
	return resp
}
