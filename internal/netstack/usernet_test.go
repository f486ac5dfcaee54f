package netstack

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/buffer"
)

func TestUserNetListenDial(t *testing.T) {
	u := NewUserNet()
	l, err := u.Listen("svc:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		if string(buf) != "hello" {
			done <- errors.New("bad payload " + string(buf))
			return
		}
		_, err = c.Write([]byte("world"))
		done <- err
	}()

	c, err := u.Dial("svc:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("reply = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUserNetDialNoListener(t *testing.T) {
	u := NewUserNet()
	if _, err := u.Dial("nobody:1"); err != ErrNoListener {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
}

func TestUserNetListenTwice(t *testing.T) {
	u := NewUserNet()
	if _, err := u.Listen("svc:80"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Listen("svc:80"); err != ErrAddrInUse {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestUserNetListenerCloseUnblocksAccept(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("svc:80")
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("Accept err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	// Address is free again.
	if _, err := u.Listen("svc:80"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestUserNetEOFOnPeerClose(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	go func() {
		c, _ := l.Accept()
		c.Write([]byte("bye"))
		c.Close()
	}()
	c, err := u.Dial("s:1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "bye" {
		t.Fatalf("data = %q", data)
	}
}

func TestUserNetWriteAfterPeerClose(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, _ := u.Dial("s:1")
	srv := <-accepted
	srv.Close()
	// Writes must eventually fail, not hang.
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err = c.Write(bytes.Repeat([]byte{1}, 1024)); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("write to closed peer never failed")
	}
}

func TestUserNetLargeTransfer(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	const total = 4 << 20 // 4 MiB, far beyond the 64 KiB ring
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		buf := make([]byte, 32<<10)
		n := 0
		for n < total {
			m, err := c.Read(buf)
			n += m
			if err != nil {
				return
			}
		}
		c.Write([]byte{0xAA})
	}()
	c, _ := u.Dial("s:1")
	defer c.Close()
	chunk := make([]byte, 64<<10)
	sent := 0
	for sent < total {
		n, err := c.Write(chunk)
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(c, ack); err != nil || ack[0] != 0xAA {
		t.Fatalf("ack = %v, %v", ack, err)
	}
}

func TestUserNetReadDeadline(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	go l.Accept()
	c, _ := u.Dial("s:1")
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("expected timeout")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline far exceeded")
	}
}

func TestUserNetReadableCallback(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	srvc := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		srvc <- c
	}()
	c, _ := u.Dial("s:1")
	srv := <-srvc

	var mu sync.Mutex
	events := 0
	srv.(Readable).SetReadableCallback(func() {
		mu.Lock()
		events++
		mu.Unlock()
	})
	c.Write([]byte("x"))
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	got := events
	mu.Unlock()
	if got == 0 {
		t.Fatal("callback never fired")
	}
	// TryReadRefs drains without blocking.
	q := buffer.NewQueue(nil)
	defer q.Reset()
	n, err := srv.(Readable).TryReadRefs(q)
	if b, _ := q.PeekByte(0); err != nil || n != 1 || b != 'x' {
		t.Fatalf("TryReadRefs = %d, %v", n, err)
	}
	// Empty: would-block.
	n, err = srv.(Readable).TryReadRefs(q)
	if n != 0 || err != nil {
		t.Fatalf("TryReadRefs empty = %d, %v", n, err)
	}
	// EOF surfaces through TryReadRefs after peer closes.
	c.Close()
	deadline := time.Now().Add(time.Second)
	for {
		_, err = srv.(Readable).TryReadRefs(q)
		if err == io.EOF {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TryReadRefs after close = %v, want EOF", err)
		}
	}
}

func TestUserNetCallbackFiresImmediatelyWhenPending(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	srvc := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		srvc <- c
	}()
	c, _ := u.Dial("s:1")
	srv := <-srvc
	c.Write([]byte("pending"))
	// Give the write time to land before registering.
	time.Sleep(5 * time.Millisecond)
	fired := make(chan struct{}, 1)
	srv.(Readable).SetReadableCallback(func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("callback with pending data did not fire")
	}
}

func TestUserNetConcurrentConnections(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c) // echo
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := u.Dial("s:1")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 100)
			c.Write(msg)
			got := make([]byte, 100)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("echo mismatch for conn %d", i)
			}
		}(i)
	}
	wg.Wait()
	l.Close()
}

func TestKernelTCPLoopback(t *testing.T) {
	k := KernelTCP{}
	l, err := k.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := k.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	if k.Name() != "kernel" {
		t.Fatal("name")
	}
}

func TestSpinApproximates(t *testing.T) {
	start := time.Now()
	Spin(2 * time.Millisecond)
	el := time.Since(start)
	if el < 2*time.Millisecond {
		t.Fatalf("spin returned early: %v", el)
	}
	Spin(0)  // no-op
	Spin(-1) // no-op
}

func TestUserNetAddrs(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("svc:9")
	if l.Addr().String() != "svc:9" || l.Addr().Network() != "unet" {
		t.Fatalf("listener addr = %v/%v", l.Addr(), l.Addr().Network())
	}
	go l.Accept()
	c, _ := u.Dial("svc:9")
	if c.RemoteAddr().String() != "svc:9" {
		t.Fatalf("remote = %v", c.RemoteAddr())
	}
	if c.LocalAddr().String() == "" {
		t.Fatal("empty local addr")
	}
}

func TestUserNetDialCostApplied(t *testing.T) {
	u := NewUserNet()
	u.DialCost = 2 * time.Millisecond
	l, _ := u.Listen("s:1")
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < 5; i++ {
		c, err := u.Dial("s:1")
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("5 dials with 2ms cost took %v", el)
	}
}

func BenchmarkUserNetDial(b *testing.B) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := u.Dial("s:1")
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

func BenchmarkUserNetRoundTrip(b *testing.B) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 128)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			c.Write(buf[:n])
		}
	}()
	c, _ := u.Dial("s:1")
	defer c.Close()
	msg := make([]byte, 64)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(msg)
		io.ReadFull(c, buf)
	}
}
