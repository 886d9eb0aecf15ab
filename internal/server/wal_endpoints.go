package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
)

// WAL segment shipping (DESIGN.md §13): a follower replica mirrors
// this server's durable log byte-for-byte by polling /wal/status and
// pulling segment ranges and checkpoint files. The endpoints are only
// registered when a durable log is wired (Config.Durable).

// shipChunkBytes caps one /wal/segments response, so a follower far
// behind streams the backlog in bounded pulls instead of one giant
// response.
const shipChunkBytes = 1 << 20

// handleWALStatus reports the shippable log state: newest checkpoint
// plus every live segment with its current logical size. The snapshot
// is rotation-consistent (taken under the log's lock), which is the
// property the follower's catch-up protocol leans on: if segment N+1
// is listed, segment N's reported size is final.
func (s *Server) handleWALStatus(w http.ResponseWriter, _ *http.Request) {
	st, err := s.cfg.Durable.ShipStatus()
	if err != nil {
		s.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, st)
}

// shipSeq parses the {id} path value as a segment/checkpoint sequence.
func shipSeq(r *http.Request) (uint64, error) {
	raw := r.PathValue("id")
	seq, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sequence %q: %w", raw, errMalformedID)
	}
	return seq, nil
}

// handleWALSegment serves up to shipChunkBytes of one segment starting
// at ?offset= (default 0). Reads of the active segment stop at its
// logical size, so a torn frame can never ship. An empty 200 means
// "caught up at that offset"; 404 means the segment was checkpointed
// away (the follower restarts from /wal/status).
func (s *Server) handleWALSegment(w http.ResponseWriter, r *http.Request) {
	seq, err := shipSeq(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	var off int64
	if raw := r.URL.Query().Get("offset"); raw != "" {
		off, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || off < 0 {
			s.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", raw))
			return
		}
	}
	buf := make([]byte, shipChunkBytes)
	n, err := s.cfg.Durable.ReadSegmentAt(seq, off, buf)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.WriteErr(w, http.StatusNotFound, fmt.Errorf("no segment %d", seq))
			return
		}
		s.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	if _, werr := w.Write(buf[:n]); werr != nil {
		s.Logf("shipping segment %d: %v", seq, werr)
	}
}

// handleWALCheckpoint streams one checkpoint file. Checkpoints are
// written atomically and never modified, so the stream is torn-proof.
func (s *Server) handleWALCheckpoint(w http.ResponseWriter, r *http.Request) {
	seq, err := shipSeq(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	rc, size, err := s.cfg.Durable.OpenCheckpoint(seq)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.WriteErr(w, http.StatusNotFound, fmt.Errorf("no checkpoint %d", seq))
			return
		}
		s.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	if _, werr := io.Copy(w, rc); werr != nil {
		s.Logf("shipping checkpoint %d: %v", seq, werr)
	}
}
