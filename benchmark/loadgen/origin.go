package loadgen

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
)

// Origin is an in-harness backend: a listener, the requests it answered,
// and a switch that makes it corrupt one byte of every value or body.
type Origin struct {
	ln       net.Listener
	t        Traffic
	corrupt  bool
	requests atomic.Uint64

	mu    sync.RWMutex
	store map[string][]byte     // memcached SETs
	conns map[net.Conn]struct{} // nil once closed
	wg    sync.WaitGroup
}

// StartOrigin starts an origin for t's protocol on a free loopback port. It
// answers a GET of any key: with the value last SET through it, or else
// with the key's version-0 value. With corrupt set it flips the last byte
// of every value or body it sends.
func StartOrigin(t Traffic, corrupt bool) (*Origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &Origin{ln: ln, t: t, corrupt: corrupt, store: map[string][]byte{}, conns: map[net.Conn]struct{}{}}
	o.wg.Add(1)
	go o.accept()
	return o, nil
}

// Addr is the origin's listen address.
func (o *Origin) Addr() string { return o.ln.Addr().String() }

// Requests is the number of requests the origin has answered.
func (o *Origin) Requests() uint64 { return o.requests.Load() }

// Close stops the listener, closes every connection and waits for their
// goroutines.
func (o *Origin) Close() {
	o.ln.Close()
	o.mu.Lock()
	for c := range o.conns {
		c.Close()
	}
	o.conns = nil
	o.mu.Unlock()
	o.wg.Wait()
}

func (o *Origin) accept() {
	defer o.wg.Done()
	for {
		c, err := o.ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.conns == nil {
			o.mu.Unlock()
			c.Close()
			return
		}
		o.conns[c] = struct{}{}
		o.mu.Unlock()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			if o.t.Proto == HTTP {
				o.serveHTTP(c)
			} else {
				o.serveMC(c)
			}
			c.Close()
			o.mu.Lock()
			delete(o.conns, c)
			o.mu.Unlock()
		}()
	}
}

// serve reads into a buffer, hands every complete request to handle (which
// appends the response to the write buffer) and writes once per read.
func (o *Origin) serve(c net.Conn, frameLen func([]byte) (int, bool), handle func(dst, req []byte) []byte) {
	rbuf := make([]byte, 64<<10)
	wbuf := make([]byte, 0, 64<<10)
	have := 0
	for {
		n, err := c.Read(rbuf[have:])
		if err != nil {
			return
		}
		have += n
		pos := 0
		wbuf = wbuf[:0]
		for {
			fl, ok := frameLen(rbuf[pos:have])
			if !ok {
				if fl > len(rbuf) || pos == 0 && have == len(rbuf) {
					return // a frame this buffer can never hold
				}
				break
			}
			wbuf = handle(wbuf, rbuf[pos:pos+fl])
			o.requests.Add(1)
			pos += fl
		}
		have = copy(rbuf, rbuf[pos:have])
		if len(wbuf) > 0 {
			if _, err := c.Write(wbuf); err != nil {
				return
			}
		}
	}
}

func (o *Origin) serveMC(c net.Conn) {
	o.serve(c, mcFrameLen, func(dst, req []byte) []byte {
		opcode, opaque := req[1], binary.BigEndian.Uint32(req[mcOpaqueOff:])
		keyLen, extLen := int(binary.BigEndian.Uint16(req[2:])), int(req[4])
		status := mcStatusUnk
		if req[0] == mcMagicReq && mcHeader+extLen+keyLen <= len(req) {
			key := req[mcHeader+extLen : mcHeader+extLen+keyLen]
			switch opcode {
			case mcOpGet:
				o.mu.RLock()
				val, ok := o.store[string(key)]
				o.mu.RUnlock()
				if ok {
					dst = append(appendMCGetHead(dst, len(val), opaque), val...)
				} else {
					dst = o.t.AppendResponse(dst, key, false, opaque)
				}
				if o.corrupt {
					dst[len(dst)-1] ^= 0xff
				}
				return dst
			case mcOpSet:
				val := append([]byte(nil), req[mcHeader+extLen+keyLen:]...)
				o.mu.Lock()
				o.store[string(key)] = val
				o.mu.Unlock()
				status = mcStatusOK
			case mcOpNoop:
				status = mcStatusOK
			}
		}
		return appendMCHeader(dst, mcMagicResp, opcode, 0, 0, status, 0, opaque)
	})
}

func (o *Origin) serveHTTP(c net.Conn) {
	o.serve(c, httpFrameLen, func(dst, req []byte) []byte {
		path, ok := bytes.CutPrefix(req, []byte("GET "))
		if sp := bytes.IndexByte(path, ' '); ok && sp > 0 {
			dst = appendHTTPResponse(dst, path[:sp], o.t.ValueSize)
			if o.corrupt {
				dst[len(dst)-1] ^= 0xff
			}
			return dst
		}
		return append(dst, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"...)
	})
}
