package amsd

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"time"

	"amstrack/internal/wire"
)

// Daemon is one serving process for Serve: amsd over an engine,
// amsrouter over its routing core, joinctl -serve over the
// coordinator's cache.
type Daemon struct {
	Name    string // log prefix
	Addr    string // HTTP listen address
	Handler http.Handler
	// WireAddr, when non-empty, serves amswire beside HTTP, staging into
	// Sink; an amsd *Server Handler reports the listener under /healthz.
	WireAddr string
	Sink     wire.Sink
	// ReadTimeout bounds reading one whole request; 0 leaves it
	// unbounded, since an ingest body can take minutes on a slow uplink.
	ReadTimeout time.Duration
	// Close releases the backend once both listeners are down; its error
	// is Serve's.
	Close func() error
	// Ready, if non-nil, gets the bound HTTP address (tests listen on :0).
	Ready func(addr string)
}

// Serve runs d until ctx is cancelled, then shuts down in ack-safety
// order: amswire first (every open stream gets a GOODBYE and its staged
// batches drain), then HTTP (in-flight requests finish), then d.Close —
// so nothing a client saw acknowledged misses the backend's last step,
// such as a node's final checkpoint. Close runs on every path.
func Serve(ctx context.Context, d Daemon) error {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		_ = d.Close()
		return err
	}
	var wireSrv *wire.Server
	if d.WireAddr != "" {
		wireLn, err := net.Listen("tcp", d.WireAddr)
		if err != nil {
			_ = ln.Close()
			_ = d.Close()
			return err
		}
		wireSrv = wire.NewServerSink(d.Sink)
		if s, ok := d.Handler.(*Server); ok {
			addr := wireLn.Addr().String()
			s.SetWireStatus(func() WireStatus {
				st := wireSrv.Stats()
				return WireStatus{Addr: addr, Conns: st.Conns, TotalConns: st.TotalConns,
					Batches: st.Batches, Rows: st.Rows, Flushes: st.Flushes, Errors: st.Errors}
			})
		}
		go func() {
			if err := wireSrv.Serve(wireLn); err != nil && !errors.Is(err, wire.ErrServerClosed) {
				log.Printf("%s: wire listener: %v", d.Name, err)
			}
		}()
		log.Printf("%s: amswire on %s", d.Name, wireLn.Addr())
	}
	// ReadHeaderTimeout defeats slowloris (a conn dribbling header bytes
	// forever); IdleTimeout reaps keep-alive conns that stopped talking.
	srv := &http.Server{
		Handler:           d.Handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       d.ReadTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	if d.Ready != nil {
		d.Ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("%s: serving HTTP on %s", d.Name, ln.Addr())

	select {
	case err := <-errc:
		if wireSrv != nil {
			_ = wireSrv.Close()
		}
		_ = d.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down", d.Name)
	if wireSrv != nil {
		if err := wireSrv.Close(); err != nil {
			log.Printf("%s: wire shutdown: %v", d.Name, err)
		}
	}
	shCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("%s: shutdown: %v", d.Name, err)
	}
	return d.Close()
}
