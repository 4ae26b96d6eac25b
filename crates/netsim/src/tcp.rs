//! TCP connection state machine and first-segment-wins reassembly.
//!
//! This module implements the subset of TCP behaviour that the Master and
//! Parasite attack relies on:
//!
//! * the three-way handshake, so sequence numbers are established the same
//!   way they are on a real network,
//! * in-window acceptance of data segments,
//! * **first-segment-wins reassembly**: once bytes for a given range of the
//!   sequence space have been accepted, later segments for the same range are
//!   ignored. This is the standard behaviour that lets an eavesdropping
//!   attacker who answers *faster than the genuine server* have its spoofed
//!   payload accepted while the genuine response is discarded as a duplicate
//!   (paper §V, Figure 2).
//! * RST and FIN handling, so middlebox and teardown experiments behave
//!   plausibly.

use crate::addr::SocketAddr;
use crate::error::NetError;
use crate::packet::{Segment, TcpFlags, DEFAULT_MSS};
use crate::seq::SeqNum;
use bytes::Bytes;
use std::collections::BTreeMap;

/// States of the TCP state machine (condensed to those the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, waiting for ACK.
    SynReceived,
    /// Connection established; data may flow.
    Established,
    /// We sent FIN and are draining.
    FinWait,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// Connection was reset.
    Reset,
}

/// Outcome of processing one incoming segment, used by experiment harnesses
/// to attribute which bytes ended up in the application stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The segment carried no new data (pure ACK, duplicate, out of window).
    NoData,
    /// New bytes were accepted into the reassembly buffer.
    Accepted {
        /// Number of new payload bytes accepted.
        fresh_bytes: usize,
    },
    /// The payload overlapped already-received sequence space entirely and
    /// was dropped — this is what happens to the *losing* side of an
    /// injection race.
    DuplicateDropped,
    /// The segment was rejected because it fell outside the receive window.
    OutOfWindow,
    /// The segment reset the connection.
    ResetReceived,
}

/// First-segment-wins reassembly buffer.
///
/// Bytes are addressed by their offset from the initial receive sequence
/// number. For every offset the *first* byte value accepted is kept; later
/// arrivals for the same offset are discarded.
///
/// A stream that is exactly one in-order segment (every request and
/// response of the race world) is held as that segment's shared buffer, not
/// copied; the next segment that adds bytes, or any [`Reassembler::offer`]
/// that does, copies it into the contiguous buffer and reassembly continues
/// from there.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// The whole stream while it is one in-order segment offered with
    /// [`Reassembler::offer_bytes`]; empty otherwise. While non-empty,
    /// `assembled` and `pending` are empty.
    single: Bytes,
    /// Contiguous, application-visible stream (unless `single` holds it).
    assembled: Vec<u8>,
    /// Out-of-order byte ranges, keyed by stream offset.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Zero-copy chunks of freshly contiguous bytes, recorded by
    /// [`Reassembler::offer_bytes`] when chunk tracking is on and consumed by
    /// [`TcpConnection::take_new_bytes`]. Covers `fresh_bytes` bytes.
    fresh: Vec<Bytes>,
    /// Total bytes across `fresh`.
    fresh_bytes: u64,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of contiguous bytes delivered so far.
    pub fn assembled_len(&self) -> u64 {
        self.assembled().len() as u64
    }

    /// Copies a single held segment into `assembled`, so the general path
    /// can extend it.
    fn unshare(&mut self) {
        if !self.single.is_empty() {
            self.assembled.extend_from_slice(&self.single);
            self.single = Bytes::new();
        }
    }

    /// [`Reassembler::offer`] for a shared buffer, optionally recording the
    /// newly contiguous bytes as zero-copy chunks for
    /// [`TcpConnection::take_new_bytes`]. In the common in-order case the
    /// recorded chunk is a slice of `data` itself — no byte is copied twice —
    /// and a stream's first segment is not copied at all: it is held as the
    /// whole stream until another segment arrives.
    pub fn offer_bytes(&mut self, offset: u64, data: &Bytes, track_chunks: bool) -> usize {
        if offset == 0 && self.assembled_len() == 0 && self.pending.is_empty() {
            // `take_new_bytes` slices `single` itself, so no chunk is recorded.
            self.single = data.clone();
            return data.len();
        }
        let before = self.assembled_len();
        let had_pending = !self.pending.is_empty();
        let fresh = self.offer(offset, data);
        if track_chunks {
            let after = self.assembled_len();
            if after > before {
                let chunk = if had_pending {
                    // Rare path: previously buffered out-of-order ranges
                    // contributed (first segment wins), so the contiguous
                    // growth is not a pure slice of `data`.
                    Bytes::copy_from_slice(&self.assembled[before as usize..after as usize])
                } else {
                    // All growth came from this segment, contiguously from
                    // `before`: share the arriving buffer.
                    data.slice((before - offset) as usize..(after - offset) as usize)
                };
                self.fresh_bytes += chunk.len() as u64;
                self.fresh.push(chunk);
            }
        }
        fresh
    }

    /// Total bytes covered by recorded-but-unconsumed fresh chunks.
    pub(crate) fn fresh_len(&self) -> u64 {
        self.fresh_bytes
    }

    /// Moves the recorded fresh chunks into `out`.
    pub(crate) fn take_fresh(&mut self, out: &mut Vec<Bytes>) {
        out.append(&mut self.fresh);
        self.fresh_bytes = 0;
    }

    /// Discards the recorded fresh chunks (releasing their shared buffers).
    pub(crate) fn clear_fresh(&mut self) {
        self.fresh.clear();
        self.fresh_bytes = 0;
    }

    /// Offers bytes starting at `offset` (relative to the initial sequence
    /// number). Returns the number of *fresh* bytes that had not been covered
    /// by earlier segments.
    pub fn offer(&mut self, offset: u64, data: &[u8]) -> usize {
        if data.is_empty() {
            return 0;
        }
        let end = offset + data.len() as u64;
        let assembled_len = self.assembled_len();

        // In-order fast path (the overwhelmingly common case): no buffered
        // out-of-order ranges and the segment touches the contiguous prefix,
        // so the new tail extends `assembled` directly — no range buffer is
        // allocated and every byte is copied exactly once. A duplicate leaves
        // a held single segment shared.
        if self.pending.is_empty() && offset <= assembled_len {
            if end <= assembled_len {
                return 0;
            }
            self.unshare();
            let tail = &data[(assembled_len - offset) as usize..];
            self.assembled.extend_from_slice(tail);
            return tail.len();
        }

        self.unshare();
        let mut fresh = 0usize;
        // Portion that extends the contiguous prefix or fills later gaps.
        let mut cursor = offset.max(assembled_len);
        while cursor < end {
            // Skip ranges already buffered out-of-order (first segment wins).
            if let Some((&pstart, pdata)) = self.pending.range(..=cursor).next_back() {
                let pend = pstart + pdata.len() as u64;
                if cursor < pend {
                    cursor = pend;
                    continue;
                }
            }
            // Find where the next already-buffered range begins, to bound this gap.
            let gap_end = self
                .pending
                .range(cursor..)
                .next()
                .map(|(&s, _)| s.min(end))
                .unwrap_or(end);
            if gap_end <= cursor {
                break;
            }
            let slice = &data[(cursor - offset) as usize..(gap_end - offset) as usize];
            fresh += slice.len();
            self.pending.insert(cursor, slice.to_vec());
            cursor = gap_end;
        }

        self.drain_contiguous();
        fresh
    }

    /// Moves pending ranges that are now contiguous with the assembled prefix
    /// into the application stream.
    fn drain_contiguous(&mut self) {
        loop {
            let next_offset = self.assembled_len();
            match self.pending.remove(&next_offset) {
                Some(chunk) => self.assembled.extend_from_slice(&chunk),
                None => break,
            }
        }
    }

    /// Returns the contiguous application-visible byte stream.
    pub fn assembled(&self) -> &[u8] {
        if self.single.is_empty() {
            &self.assembled
        } else {
            &self.single
        }
    }

    /// Returns `true` if there are buffered out-of-order ranges waiting for a gap to fill.
    pub fn has_gaps(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// A single TCP connection endpoint (one side of a connection).
#[derive(Debug, Clone)]
pub struct TcpConnection {
    state: TcpState,
    local: SocketAddr,
    remote: SocketAddr,
    /// Initial send sequence number.
    iss: SeqNum,
    /// Initial receive sequence number (peer's ISS), valid after SYN seen.
    irs: SeqNum,
    /// Next sequence number we will send.
    snd_nxt: SeqNum,
    /// Highest cumulative ACK received from the peer.
    snd_una: SeqNum,
    /// Next sequence number expected from the peer.
    rcv_nxt: SeqNum,
    /// Receive window we advertise.
    rcv_wnd: u32,
    /// Maximum segment size for outgoing data.
    mss: usize,
    reassembler: Reassembler,
    /// Bytes already handed to the application.
    delivered: usize,
    /// Whether freshly contiguous bytes are recorded as zero-copy chunks for
    /// [`TcpConnection::take_new_bytes`]. Off by default so endpoints nobody
    /// reads incrementally (e.g. clients without a service) keep no chunk
    /// list (a single-segment stream is held shared either way).
    deliver_chunks: bool,
    /// Data the application sent before the handshake completed, in order;
    /// sent once established, discarded if the connection resets first.
    queued: Vec<Bytes>,
}

impl TcpConnection {
    /// Creates a connection in the `Listen` state (passive open).
    pub fn listen(local: SocketAddr, iss: SeqNum) -> Self {
        TcpConnection {
            state: TcpState::Listen,
            local,
            remote: SocketAddr::new(crate::addr::IpAddr::UNSPECIFIED, 0),
            iss,
            irs: SeqNum::new(0),
            snd_nxt: iss,
            snd_una: iss,
            rcv_nxt: SeqNum::new(0),
            rcv_wnd: 65_535,
            mss: DEFAULT_MSS,
            reassembler: Reassembler::new(),
            delivered: 0,
            deliver_chunks: false,
            queued: Vec::new(),
        }
    }

    /// Creates a connection performing an active open and returns the SYN to
    /// transmit.
    pub fn connect(local: SocketAddr, remote: SocketAddr, iss: SeqNum) -> (Self, Segment) {
        let syn = Segment::control(local.port, remote.port, iss, SeqNum::new(0), TcpFlags::SYN);
        let conn = TcpConnection {
            state: TcpState::SynSent,
            local,
            remote,
            iss,
            irs: SeqNum::new(0),
            snd_nxt: iss + 1,
            snd_una: iss,
            rcv_nxt: SeqNum::new(0),
            rcv_wnd: 65_535,
            mss: DEFAULT_MSS,
            reassembler: Reassembler::new(),
            delivered: 0,
            deliver_chunks: false,
            queued: Vec::new(),
        };
        (conn, syn)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> SocketAddr {
        self.local
    }

    /// Remote endpoint (unspecified until a SYN is received on a listener).
    pub fn remote(&self) -> SocketAddr {
        self.remote
    }

    /// Next sequence number this endpoint will use for new data.
    pub fn send_next(&self) -> SeqNum {
        self.snd_nxt
    }

    /// Next sequence number expected from the peer. An eavesdropper who has
    /// seen the client's request knows this value for the server direction,
    /// which is all it needs to spoof an acceptable response.
    pub fn recv_next(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Advertised receive window.
    pub fn recv_window(&self) -> u32 {
        self.rcv_wnd
    }

    /// Overrides the maximum segment size (for experiments).
    pub fn set_mss(&mut self, mss: usize) {
        assert!(mss > 0, "MSS must be positive");
        self.mss = mss;
    }

    /// Enables or disables zero-copy chunk recording for
    /// [`TcpConnection::take_new_bytes`]. [`Host::deliver`] switches it on for
    /// hosts with an attached service; leaving it off keeps endpoints nobody
    /// reads incrementally from holding a chunk per segment alive.
    ///
    /// [`Host::deliver`]: crate::endpoint::Host::deliver
    pub fn set_chunk_delivery(&mut self, enabled: bool) {
        self.deliver_chunks = enabled;
        if !enabled {
            self.reassembler.clear_fresh();
        }
    }

    /// Returns `true` once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait
        )
    }

    /// Queues application data for transmission, segmenting at the MSS, and
    /// returns the segments to hand to the network layer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not
    /// established.
    pub fn send(&mut self, data: &[u8]) -> Result<Vec<Segment>, NetError> {
        self.send_bytes(Bytes::copy_from_slice(data))
    }

    /// [`TcpConnection::send`] without the copy: each MSS-sized segment
    /// payload is a zero-copy slice of the shared buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not
    /// established.
    pub fn send_bytes(&mut self, data: Bytes) -> Result<Vec<Segment>, NetError> {
        let mut segments = Vec::with_capacity(data.len().div_ceil(self.mss).max(1));
        self.send_bytes_into(data, &mut segments)?;
        Ok(segments)
    }

    /// [`TcpConnection::send_bytes`] into a caller-owned buffer, so the hot
    /// service path can reuse one segment scratch vector across sends.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not
    /// established (nothing is appended to `out`).
    pub fn send_bytes_into(&mut self, data: Bytes, out: &mut Vec<Segment>) -> Result<(), NetError> {
        if !self.is_established() {
            return Err(NetError::InvalidState {
                reason: format!("cannot send in state {:?}", self.state),
            });
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + self.mss).min(data.len());
            let chunk = data.slice(offset..end);
            let len = chunk.len() as u32;
            let seg = Segment::data(
                self.local.port,
                self.remote.port,
                self.snd_nxt,
                self.rcv_nxt,
                chunk,
            );
            self.snd_nxt = self.snd_nxt + len;
            out.push(seg);
            offset = end;
        }
        Ok(())
    }

    /// Queues data sent before the handshake completed (see
    /// [`TcpConnection::take_queued`]).
    pub(crate) fn queue_send(&mut self, data: Bytes) {
        self.queued.push(data);
    }

    /// Whether data sent before the handshake is waiting.
    pub(crate) fn has_queued(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Takes the data queued before the handshake, in the order it was
    /// queued: to send once established, or to discard after a reset.
    pub(crate) fn take_queued(&mut self) -> Vec<Bytes> {
        std::mem::take(&mut self.queued)
    }

    /// Initiates connection teardown, returning the FIN segment.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not established.
    pub fn close(&mut self) -> Result<Segment, NetError> {
        if !self.is_established() {
            return Err(NetError::InvalidState {
                reason: format!("cannot close in state {:?}", self.state),
            });
        }
        let fin = Segment::control(
            self.local.port,
            self.remote.port,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::FIN_ACK,
        );
        self.snd_nxt = self.snd_nxt + 1;
        self.state = TcpState::FinWait;
        Ok(fin)
    }

    /// Processes an incoming segment from `peer`, returning any segments to
    /// send in response plus a record of what happened to the payload.
    pub fn on_segment(&mut self, peer: SocketAddr, seg: &Segment) -> (Vec<Segment>, AcceptOutcome) {
        let mut responses = Vec::new();
        let outcome = self.on_segment_into(peer, seg, &mut responses);
        (responses, outcome)
    }

    /// [`TcpConnection::on_segment`] appending responses to a caller-owned
    /// buffer, so the simulator's event loop reuses one segment vector across
    /// deliveries instead of allocating per event.
    pub fn on_segment_into(
        &mut self,
        peer: SocketAddr,
        seg: &Segment,
        responses: &mut Vec<Segment>,
    ) -> AcceptOutcome {
        if seg.flags.rst {
            if self.state != TcpState::Listen && self.state != TcpState::Closed {
                self.state = TcpState::Reset;
            }
            return AcceptOutcome::ResetReceived;
        }

        match self.state {
            TcpState::Listen => self.on_segment_listen(peer, seg, responses),
            TcpState::SynSent => self.on_segment_syn_sent(seg, responses),
            TcpState::SynReceived => {
                if seg.flags.ack {
                    self.state = TcpState::Established;
                    self.snd_una = seg.ack;
                }
                // The ACK completing the handshake may already carry data.
                if !seg.payload.is_empty() {
                    self.on_data(seg, responses)
                } else {
                    AcceptOutcome::NoData
                }
            }
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait => {
                self.on_data(seg, responses)
            }
            TcpState::Closed | TcpState::Reset => {
                // A closed endpoint answers with RST.
                responses.push(Segment::control(
                    self.local.port,
                    peer.port,
                    seg.ack,
                    seg.seq_end(),
                    TcpFlags::RST,
                ));
                AcceptOutcome::NoData
            }
        }
    }

    fn on_segment_listen(
        &mut self,
        peer: SocketAddr,
        seg: &Segment,
        responses: &mut Vec<Segment>,
    ) -> AcceptOutcome {
        if !seg.flags.syn {
            return AcceptOutcome::NoData;
        }
        self.remote = peer;
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.state = TcpState::SynReceived;
        responses.push(Segment::control(
            self.local.port,
            peer.port,
            self.iss,
            self.rcv_nxt,
            TcpFlags::SYN_ACK,
        ));
        self.snd_nxt = self.iss + 1;
        AcceptOutcome::NoData
    }

    fn on_segment_syn_sent(&mut self, seg: &Segment, responses: &mut Vec<Segment>) -> AcceptOutcome {
        if !(seg.flags.syn && seg.flags.ack) {
            return AcceptOutcome::NoData;
        }
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.snd_una = seg.ack;
        self.state = TcpState::Established;
        responses.push(Segment::control(
            self.local.port,
            self.remote.port,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::ACK,
        ));
        AcceptOutcome::NoData
    }

    fn on_data(&mut self, seg: &Segment, responses: &mut Vec<Segment>) -> AcceptOutcome {
        if seg.flags.ack {
            self.snd_una = seg.ack;
        }

        let mut outcome = AcceptOutcome::NoData;
        if !seg.payload.is_empty() {
            let window_start = self.rcv_nxt;
            let payload_len = seg.payload.len() as u32;
            let seg_end = seg.seq + payload_len;
            if seg_end.precedes_or_eq(window_start) {
                // Entirely old data: the losing side of an injection race or a
                // retransmission. Acknowledged below but the payload is dropped.
                outcome = AcceptOutcome::DuplicateDropped;
            } else {
                // The segment must overlap [rcv_nxt, rcv_nxt + rcv_wnd).
                let in_window = seg.seq.in_window(window_start, self.rcv_wnd)
                    || window_start.in_window(seg.seq, payload_len);
                if !in_window {
                    return AcceptOutcome::OutOfWindow;
                }
                let offset = self.irs.distance_to(seg.seq) as u64;
                // Offset 0 is the SYN; payload starts at stream offset (offset - 1).
                let stream_offset = offset.saturating_sub(1);
                let fresh =
                    self.reassembler
                        .offer_bytes(stream_offset, &seg.payload, self.deliver_chunks);
                outcome = if fresh > 0 {
                    AcceptOutcome::Accepted { fresh_bytes: fresh }
                } else {
                    AcceptOutcome::DuplicateDropped
                };
                self.rcv_nxt = self.irs + 1 + self.reassembler.assembled_len() as u32;
            }
        }

        if seg.flags.fin {
            self.rcv_nxt = self.rcv_nxt + 1;
            if self.state == TcpState::Established {
                self.state = TcpState::CloseWait;
            } else if self.state == TcpState::FinWait {
                self.state = TcpState::Closed;
            }
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            responses.push(Segment::control(
                self.local.port,
                self.remote.port,
                self.snd_nxt,
                self.rcv_nxt,
                TcpFlags::ACK,
            ));
        }
        outcome
    }

    /// Returns application data that has become available since the last call.
    pub fn read_new(&mut self) -> Vec<u8> {
        self.reassembler.clear_fresh();
        let assembled = self.reassembler.assembled();
        let new = assembled[self.delivered..].to_vec();
        self.delivered = assembled.len();
        new
    }

    /// [`TcpConnection::read_new`] without the copy: appends the bytes that
    /// became available since the last read to `out` as shared [`Bytes`]
    /// chunks. With chunk delivery enabled
    /// ([`TcpConnection::set_chunk_delivery`]) the chunks are zero-copy slices
    /// of the arriving segments; otherwise (or after mixing in plain
    /// [`TcpConnection::read_new`] calls) one copied chunk is produced. A
    /// stream that is still a single segment is handed over as a slice of
    /// it, whether chunk delivery is on or not.
    pub fn take_new_bytes(&mut self, out: &mut Vec<Bytes>) {
        let len = self.reassembler.assembled().len();
        if self.delivered >= len {
            self.reassembler.clear_fresh();
            return;
        }
        if !self.reassembler.single.is_empty() {
            out.push(self.reassembler.single.slice(self.delivered..));
        } else if self.reassembler.fresh_len() == (len - self.delivered) as u64 {
            self.reassembler.take_fresh(out);
        } else {
            self.reassembler.clear_fresh();
            out.push(Bytes::copy_from_slice(
                &self.reassembler.assembled()[self.delivered..],
            ));
        }
        self.delivered = len;
    }

    /// Returns the entire contiguous byte stream received so far.
    pub fn received(&self) -> &[u8] {
        self.reassembler.assembled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use proptest::prelude::*;

    fn addrs() -> (SocketAddr, SocketAddr) {
        (
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 51000),
            SocketAddr::new(IpAddr::new(93, 184, 216, 34), 80),
        )
    }

    /// Runs a full handshake between a client and a server connection.
    fn handshake() -> (TcpConnection, TcpConnection) {
        let (client_addr, server_addr) = addrs();
        let (mut client, syn) = TcpConnection::connect(client_addr, server_addr, SeqNum::new(1000));
        let mut server = TcpConnection::listen(server_addr, SeqNum::new(5000));

        let (synack, _) = server.on_segment(client_addr, &syn);
        assert_eq!(synack.len(), 1);
        let (ack, _) = client.on_segment(server_addr, &synack[0]);
        assert_eq!(ack.len(), 1);
        server.on_segment(client_addr, &ack[0]);

        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let (client, server) = handshake();
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        // Server's rcv_nxt is the client's snd_nxt, as an eavesdropper would infer.
        assert_eq!(server.recv_next(), client.send_next());
    }

    #[test]
    fn data_transfer_delivers_in_order() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let segments = client.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        for seg in &segments {
            server.on_segment(client_addr, seg);
        }
        assert_eq!(server.received(), b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(server.read_new(), b"GET / HTTP/1.1\r\n\r\n".to_vec());
        assert!(server.read_new().is_empty());
    }

    #[test]
    fn large_payload_is_segmented_at_mss() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let body = vec![0x61u8; DEFAULT_MSS * 2 + 100];
        let segments = client.send(&body).unwrap();
        assert_eq!(segments.len(), 3);
        for seg in &segments {
            server.on_segment(client_addr, seg);
        }
        assert_eq!(server.received().len(), body.len());
    }

    #[test]
    fn first_segment_wins_over_later_duplicate() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let seq = client.send_next();

        // Attacker's spoofed payload arrives first for this sequence range.
        let spoofed = Segment::data(51000, 80, seq, server.send_next(), &b"EVIL DATA!"[..]);
        let (_, outcome1) = server.on_segment(client_addr, &spoofed);
        assert_eq!(outcome1, AcceptOutcome::Accepted { fresh_bytes: 10 });

        // Genuine payload for the same range arrives later and is dropped.
        let genuine = Segment::data(51000, 80, seq, server.send_next(), &b"real data."[..]);
        let (_, outcome2) = server.on_segment(client_addr, &genuine);
        assert_eq!(outcome2, AcceptOutcome::DuplicateDropped);

        assert_eq!(server.received(), b"EVIL DATA!");
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let seq = client.send_next();

        let part2 = Segment::data(51000, 80, seq + 5, server.send_next(), &b"world"[..]);
        let part1 = Segment::data(51000, 80, seq, server.send_next(), &b"hello"[..]);
        server.on_segment(client_addr, &part2);
        assert_eq!(server.received(), b"");
        server.on_segment(client_addr, &part1);
        assert_eq!(server.received(), b"helloworld");
    }

    #[test]
    fn out_of_window_segment_is_rejected() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let far_future = client.send_next() + 1_000_000;
        let seg = Segment::data(51000, 80, far_future, server.send_next(), &b"zzz"[..]);
        let (_, outcome) = server.on_segment(client_addr, &seg);
        assert_eq!(outcome, AcceptOutcome::OutOfWindow);
        assert!(server.received().is_empty());
    }

    #[test]
    fn rst_tears_down_the_connection() {
        let (mut client, _server) = handshake();
        let (_, server_addr) = addrs();
        let rst = Segment::control(80, 51000, SeqNum::new(0), SeqNum::new(0), TcpFlags::RST);
        let (_, outcome) = client.on_segment(server_addr, &rst);
        assert_eq!(outcome, AcceptOutcome::ResetReceived);
        assert_eq!(client.state(), TcpState::Reset);
        assert!(client.send(b"more").is_err());
    }

    #[test]
    fn fin_moves_to_close_wait_and_acks() {
        let (mut client, mut server) = handshake();
        let (client_addr, server_addr) = addrs();
        let fin = client.close().unwrap();
        let (acks, _) = server.on_segment(client_addr, &fin);
        assert_eq!(server.state(), TcpState::CloseWait);
        assert_eq!(acks.len(), 1);
        client.on_segment(server_addr, &acks[0]);
        assert_eq!(client.state(), TcpState::FinWait);
    }

    #[test]
    fn send_before_handshake_is_an_error() {
        let (client_addr, server_addr) = addrs();
        let (mut client, _syn) = TcpConnection::connect(client_addr, server_addr, SeqNum::new(1));
        let err = client.send(b"early").unwrap_err();
        assert!(matches!(err, NetError::InvalidState { .. }));
    }

    #[test]
    fn take_new_bytes_hands_over_zero_copy_chunks() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        server.set_chunk_delivery(true);
        let segments = client.send(b"GET /my.js HTTP/1.1\r\n\r\n").unwrap();
        for seg in &segments {
            server.on_segment(client_addr, seg);
        }
        let mut chunks = Vec::new();
        server.take_new_bytes(&mut chunks);
        let stitched: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(stitched, b"GET /my.js HTTP/1.1\r\n\r\n");
        // Nothing new: a second take yields nothing.
        chunks.clear();
        server.take_new_bytes(&mut chunks);
        assert!(chunks.is_empty());
        // The bytes counted as delivered, so read_new sees nothing either.
        assert!(server.read_new().is_empty());
    }

    #[test]
    fn take_new_bytes_falls_back_to_a_copy_without_chunk_tracking() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        // Tracking off (the default): delivery still works, via one copied
        // chunk.
        let segments = client.send(b"hello world").unwrap();
        for seg in &segments {
            server.on_segment(client_addr, seg);
        }
        let mut chunks = Vec::new();
        server.take_new_bytes(&mut chunks);
        assert_eq!(chunks.len(), 1);
        assert_eq!(&chunks[0][..], b"hello world");
    }

    #[test]
    fn chunk_tracking_interoperates_with_read_new() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        server.set_chunk_delivery(true);
        for seg in &client.send(b"first").unwrap() {
            server.on_segment(client_addr, seg);
        }
        assert_eq!(server.read_new(), b"first".to_vec());
        for seg in &client.send(b"second").unwrap() {
            server.on_segment(client_addr, seg);
        }
        let mut chunks = Vec::new();
        server.take_new_bytes(&mut chunks);
        let stitched: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(stitched, b"second");
        assert_eq!(server.received(), b"firstsecond");
    }

    #[test]
    fn out_of_order_chunks_are_stitched_correctly() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        server.set_chunk_delivery(true);
        let seq = client.send_next();
        let part2 = Segment::data(51000, 80, seq + 5, server.send_next(), &b"world"[..]);
        let part1 = Segment::data(51000, 80, seq, server.send_next(), &b"hello"[..]);
        server.on_segment(client_addr, &part2);
        server.on_segment(client_addr, &part1);
        let mut chunks = Vec::new();
        server.take_new_bytes(&mut chunks);
        let stitched: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(stitched, b"helloworld");
    }

    #[test]
    fn reassembler_partial_overlap_keeps_first_bytes() {
        let mut r = Reassembler::new();
        assert_eq!(r.offer(0, b"AAAA"), 4);
        // Overlapping write: only the two new trailing bytes are fresh.
        assert_eq!(r.offer(2, b"BBBB"), 2);
        assert_eq!(r.assembled(), b"AAAABB");
    }

    #[test]
    fn a_single_segment_stream_is_shared_until_the_next_segment() {
        let mut r = Reassembler::new();
        let first = Bytes::copy_from_slice(b"HTTP/1.1 200 OK\r\n\r\nabc");
        assert_eq!(r.offer_bytes(0, &first, false), first.len());
        // Held, not copied.
        assert_eq!(r.assembled().as_ptr(), first.as_ptr());
        // A duplicate keeps it shared.
        assert_eq!(r.offer_bytes(0, &Bytes::copy_from_slice(b"HTTP/1.1 404"), false), 0);
        assert_eq!(r.assembled().as_ptr(), first.as_ptr());
        // The next segment copies it and extends the copy.
        assert_eq!(r.offer_bytes(first.len() as u64, &Bytes::copy_from_slice(b"def"), false), 3);
        assert_ne!(r.assembled().as_ptr(), first.as_ptr());
        assert_eq!(r.assembled(), b"HTTP/1.1 200 OK\r\n\r\nabcdef");
    }

    #[test]
    fn take_new_bytes_slices_a_single_segment_stream() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let segments = client.send(b"GET /my.js HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(segments.len(), 1);
        server.on_segment(client_addr, &segments[0]);
        let mut chunks = Vec::new();
        server.take_new_bytes(&mut chunks);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].as_ptr(), segments[0].payload.as_ptr());
        assert_eq!(server.received().as_ptr(), segments[0].payload.as_ptr());
    }

    proptest! {
        /// The single held segment, the in-order fast path, out-of-order
        /// ranges and zero-copy chunks all agree with a first-byte-wins model
        /// of the stream, whatever mix of offers and reads drives them.
        #[test]
        fn reassembly_matches_a_first_byte_wins_model(
            ops in proptest::collection::vec(any::<u64>(), 1..24),
            track_chunks in any::<bool>(),
        ) {
            let (_, mut conn) = handshake();
            conn.set_chunk_delivery(track_chunks);
            let mut model: Vec<Option<u8>> = vec![None; 64];
            let mut delivered: Vec<u8> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                let contiguous_len = model.iter().take_while(|b| b.is_some()).count();
                // Half the offers continue the stream in order; the rest land
                // anywhere, overlapping or leaving gaps.
                let offset = if (op >> 20) % 2 == 0 {
                    contiguous_len.min(48)
                } else {
                    (op % 48) as usize
                };
                let len = ((op >> 8) % 16) as usize + 1;
                // Every step writes distinct bytes, so which write won shows.
                let data: Vec<u8> = (0..len).map(|i| (step * 16 + i) as u8).collect();
                let newly_filled = model[offset..offset + len].iter().filter(|b| b.is_none()).count();
                match (op >> 16) % 4 {
                    kind @ (0 | 1) => {
                        let fresh = if kind == 0 {
                            let shared = Bytes::from(data.clone());
                            conn.reassembler.offer_bytes(offset as u64, &shared, conn.deliver_chunks)
                        } else {
                            conn.reassembler.offer(offset as u64, &data)
                        };
                        prop_assert_eq!(fresh, newly_filled);
                        for (slot, &byte) in model[offset..offset + len].iter_mut().zip(&data) {
                            slot.get_or_insert(byte);
                        }
                    }
                    2 => {
                        let mut chunks = Vec::new();
                        conn.take_new_bytes(&mut chunks);
                        delivered.extend(chunks.iter().flat_map(|c| c.iter().copied()));
                    }
                    _ => delivered.extend(conn.read_new()),
                }
                let contiguous: Vec<u8> = model.iter().map_while(|b| *b).collect();
                prop_assert_eq!(conn.received(), &contiguous[..]);
                prop_assert_eq!(conn.reassembler.has_gaps(), model[contiguous.len()..].iter().any(Option::is_some));
                prop_assert!(contiguous.starts_with(&delivered));
            }
            let mut chunks = Vec::new();
            conn.take_new_bytes(&mut chunks);
            delivered.extend(chunks.iter().flat_map(|c| c.iter().copied()));
            let contiguous: Vec<u8> = model.iter().map_while(|b| *b).collect();
            prop_assert_eq!(delivered, contiguous);
        }
    }

    #[test]
    fn reassembler_fills_gap_between_pending_ranges() {
        let mut r = Reassembler::new();
        assert_eq!(r.offer(10, b"cc"), 2);
        assert_eq!(r.offer(0, b"aa"), 2);
        assert!(r.has_gaps());
        assert_eq!(r.assembled(), b"aa");
        assert_eq!(r.offer(2, b"bbbbbbbb"), 8);
        assert_eq!(r.assembled(), b"aabbbbbbbbcc");
        assert!(!r.has_gaps());
    }
}
