package nbd

import (
	"repro/internal/buf"
	"repro/internal/hostos"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
)

// SockClient is the classic sockets-based NBD client driver (Figure 5):
// kernel-level socket calls move every request and reply through the full
// host TCP/IP stack.
type SockClient struct {
	*core
	sock *hostos.Socket
}

// NewSockClient wires a client driver to a connected socket and starts
// its reply reader on p's engine. size is the exported device size.
func NewSockClient(p *sim.Proc, cpu *sim.CPU, sock *hostos.Socket, size int64, qd int) *SockClient {
	c := &SockClient{core: newCore(cpu, size, qd), sock: sock}
	c.core.t = c
	eng := p.Engine()
	eng.Spawn("nbd.sock.reader", c.readerLoop)
	return c
}

// sendRequest implements transport: header (and write payload) through
// the socket. Socket send blocking is the flow control.
func (c *SockClient) sendRequest(p *sim.Proc, req Request, data buf.Buf) error {
	hdr := buf.Bytes(MarshalRequest(&req))
	if err := c.sock.Send(p, hdr); err != nil {
		return err
	}
	if data.Len() > 0 {
		if err := c.sock.Send(p, data); err != nil {
			return err
		}
	}
	return nil
}

// readerLoop matches replies to requests.
func (c *SockClient) readerLoop(p *sim.Proc) {
	for {
		hdr, err := c.sock.RecvFull(p, ReplyLen)
		if err != nil {
			c.fail(err)
			return
		}
		rep, err := ParseReply(hdr)
		if err != nil {
			c.fail(err)
			return
		}
		var data buf.Buf
		if o := c.inflight[rep.Handle]; o != nil && o.isRead && rep.Error == 0 {
			data, err = c.sock.RecvFull(p, o.length)
			if err != nil {
				c.fail(err)
				return
			}
		}
		c.complete(rep.Handle, rep.Error, data)
	}
}

// ServeSock runs the user-level sockets NBD server loop on one accepted
// connection: parse request, perform disk I/O, reply. It returns when the
// client disconnects.
func ServeSock(p *sim.Proc, cpu *sim.CPU, sock *hostos.Socket, disk *storage.Disk) {
	dev := &storage.LocalDev{D: disk}
	for {
		hdr, err := sock.RecvFull(p, RequestLen)
		if err != nil {
			return
		}
		req, err := ParseRequest(hdr)
		if err != nil {
			return
		}
		p.Use(cpu.Server, params.US(ServerPerReqUS))
		switch req.Type {
		case CmdRead:
			data, _ := dev.Read(p, int64(req.Offset), int(req.Length))
			rep := buf.Bytes(MarshalReply(&Reply{Handle: req.Handle}))
			if sock.Send(p, rep) != nil || sock.Send(p, data) != nil {
				return
			}
		case CmdWrite:
			data, err := sock.RecvFull(p, int(req.Length))
			if err != nil {
				return
			}
			if dev.Write(p, int64(req.Offset), data) != nil {
				return
			}
			rep := buf.Bytes(MarshalReply(&Reply{Handle: req.Handle}))
			if sock.Send(p, rep) != nil {
				return
			}
		case CmdDisc:
			return
		default:
			rep := buf.Bytes(MarshalReply(&Reply{Handle: req.Handle, Error: 22}))
			if sock.Send(p, rep) != nil {
				return
			}
		}
	}
}
