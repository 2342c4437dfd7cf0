//! A transport that plays back a fixed byte stream in pieces, for the
//! test binaries that feed `FrameIo` a stream split at chosen offsets.

use std::time::Instant;

use wserv::transport::{FrameIo, Recv, Transport, WireClock};
use wserv::{TransportError, WireDir, WireFaultPlan};

/// Reads `bytes` back with a break at every cut — no read returns bytes
/// from both sides of one — then reads EOF. Sends are dropped.
pub struct Split {
    bytes: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
}

impl Split {
    /// A `FrameIo` reading `bytes`, broken at `cuts`.
    pub fn framed(bytes: &[u8], cuts: &[usize]) -> FrameIo {
        let split = Split {
            bytes: bytes.to_vec(),
            pos: 0,
            cuts: cuts.to_vec(),
        };
        let (dir, faults) = (WireDir::ServerToClient, WireFaultPlan::none());
        FrameIo::new(Box::new(split), 7, dir, faults, WireClock::new())
    }
}

impl Transport for Split {
    fn send(&mut self, _: &[&[u8]]) -> Result<(), TransportError> {
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], _: Option<Instant>) -> Result<Recv, TransportError> {
        let next_cut = self.cuts.iter().filter(|&&c| c > self.pos);
        let end = next_cut.fold(self.bytes.len(), |end, &c| end.min(c));
        let n = buf.len().min(end - self.pos);
        if n == 0 {
            return Ok(Recv::Eof);
        }
        buf[..n].copy_from_slice(&self.bytes[self.pos..][..n]);
        self.pos += n;
        Ok(Recv::Data(n))
    }

    fn shutdown_write(&mut self) {}

    fn close_read(&mut self) {}

    fn abort(&mut self) {}

    fn try_clone(&self) -> Option<Box<dyn Transport>> {
        None
    }
}
