package memcache

import (
	"bytes"
	"net"
	"testing"

	"flick/internal/netstack"
	"flick/internal/value"
)

func TestRequestResponseConstruction(t *testing.T) {
	req := Request(OpGetK, []byte("k"), nil)
	if req.Field("magic_code").AsInt() != MagicRequest {
		t.Fatal("magic")
	}
	if req.Field("opcode").AsInt() != OpGetK {
		t.Fatal("opcode")
	}
	resp := Response(req, StatusOK, []byte("k"), []byte("v"))
	if !IsResponse(resp) {
		t.Fatal("IsResponse")
	}
	if IsResponse(req) {
		t.Fatal("request classified as response")
	}
	if Status(resp) != StatusOK {
		t.Fatal("status")
	}
	if resp.Field("opcode").AsInt() != OpGetK {
		t.Fatal("response opcode should mirror request")
	}
}

func TestConnSendReceive(t *testing.T) {
	u := netstack.NewUserNet()
	l, _ := u.Listen("mc:1")
	done := make(chan error, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		c := NewConn(raw)
		defer c.Close()
		req, err := c.Receive()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(Response(req, StatusOK, req.Field("key").AsBytes(), []byte("stored")))
	}()

	raw, err := u.Dial("mc:1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	defer c.Close()
	resp, err := c.RoundTrip(Request(OpGet, []byte("the-key"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Field("value").AsString() != "stored" {
		t.Fatalf("value = %q", resp.Field("value").AsString())
	}
	if resp.Field("key").AsString() != "the-key" {
		t.Fatalf("key = %q", resp.Field("key").AsString())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnPipelinedMessages(t *testing.T) {
	u := netstack.NewUserNet()
	l, _ := u.Listen("mc:2")
	go func() {
		raw, _ := l.Accept()
		c := NewConn(raw)
		defer c.Close()
		for i := 0; i < 10; i++ {
			req, err := c.Receive()
			if err != nil {
				return
			}
			c.Send(Response(req, StatusOK, nil, req.Field("key").AsBytes()))
		}
	}()
	raw, _ := u.Dial("mc:2")
	c := NewConn(raw)
	defer c.Close()
	// Send all ten before reading any reply (pipelining).
	keys := []string{"a", "bb", "ccc", "dddd", "e", "ff", "g", "h", "i", "jj"}
	for _, k := range keys {
		if err := c.Send(Request(OpGet, []byte(k), nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		resp, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Field("value").AsString() != k {
			t.Fatalf("reply = %q, want %q", resp.Field("value").AsString(), k)
		}
	}
}

func TestReadMessage(t *testing.T) {
	wire, err := Codec.Encode(nil, Request(OpSet, []byte("key"), []byte("value")))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Field("key").AsString() != "key" || msg.Field("value").AsString() != "value" {
		t.Fatal("ReadMessage mismatch")
	}
}

func TestReadMessageTruncated(t *testing.T) {
	wire, _ := Codec.Encode(nil, Request(OpSet, []byte("key"), []byte("value")))
	if _, err := ReadMessage(bytes.NewReader(wire[:10])); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := ReadMessage(bytes.NewReader(wire[:len(wire)-2])); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestConnReceiveEOF(t *testing.T) {
	u := netstack.NewUserNet()
	l, _ := u.Listen("mc:3")
	connCh := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		connCh <- c
	}()
	raw, _ := u.Dial("mc:3")
	srv := <-connCh
	srv.Close()
	c := NewConn(raw)
	if _, err := c.Receive(); err == nil {
		t.Fatal("Receive on closed peer succeeded")
	}
}

func TestResponseValueTypes(t *testing.T) {
	resp := Response(Request(OpGet, []byte("k"), nil), StatusKeyNotFound, nil, nil)
	if Status(resp) != StatusKeyNotFound {
		t.Fatal("status")
	}
	if resp.Field("value").Kind != value.KindBytes {
		t.Fatal("nil value should still be bytes kind")
	}
}

// TestFieldSlotsMatchDesc pins every init-time slot to its field's index
// in Desc, so a grammar edit cannot leave a stale slot behind.
func TestFieldSlotsMatchDesc(t *testing.T) {
	for name, slot := range map[string]int{
		"magic_code": SlotMagic, "opcode": SlotOpcode, "status_or_v_bucket": SlotStatus,
		"opaque": SlotOpaque, "key": SlotKey, "value": SlotValue, "_raw": SlotRaw,
	} {
		if want := Desc.FieldIndex(name); slot != want || want < 0 {
			t.Errorf("slot of %q = %d, Desc.FieldIndex = %d", name, slot, want)
		}
	}
}
