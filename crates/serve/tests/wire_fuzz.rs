//! Wire fuzzing: every `decode_*` in the protocol takes untrusted
//! bytes. Random, truncated and bit-flipped frames must decode to a
//! value or a `WireError` without panicking, and allocate at most a
//! small multiple of the frame length while doing so. Encoding a
//! generated value and decoding it gives the value back, re-encoding a
//! decoded frame gives the frame back, and whatever decodes from junk
//! survives a re-encoding unchanged.

use cim_bigint::Uint;
use cim_modmul::fields::FieldId;
use cim_serve::protocol::{
    decode_control_request, decode_control_response, decode_request, decode_response,
    encode_control_request, encode_control_response, encode_request, encode_response,
    ControlRequest, ControlResponse, EcPoint, Op, Request, Response, ResponsePayload, ShedReason,
    WireError,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested from the allocator by this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requested bytes so a
/// test can bound what one decode allocates (tests run on parallel
/// threads, so the count is per thread).
struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the slot is gone while a thread shuts down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees hold; the counter is a
// const-initialized thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded with the caller's layout (see above).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded with the caller's layout (see above).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's block and layout, from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decodes `frame` with every decoder, asserting that each allocates
/// at most a small multiple of the frame length (a lossy string can
/// triple: each invalid byte becomes a 3-byte replacement character)
/// and that anything decoded re-encodes to a frame that decodes to
/// the same value.
fn decode_all(frame: &[u8]) -> Result<(), TestCaseError> {
    let bound = 4 * frame.len() + 256;
    macro_rules! check {
        ($decode:ident, $encode:ident) => {{
            let before = ALLOCATED.with(Cell::get);
            let decoded = $decode(frame);
            let used = ALLOCATED.with(Cell::get) - before;
            prop_assert!(
                used <= bound,
                "{} allocated {used} bytes for a {}-byte frame",
                stringify!($decode),
                frame.len()
            );
            if let Ok(value) = decoded {
                prop_assert_eq!($decode(&$encode(&value)), Ok(value));
            }
        }};
    }
    check!(decode_request, encode_request);
    check!(decode_response, encode_response);
    check!(decode_control_request, encode_control_request);
    check!(decode_control_response, encode_control_response);
    Ok(())
}

/// A deterministic value stream drawn from one seed (splitmix64).
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn uint(&mut self) -> Uint {
        let limbs = (0..self.below(6)).map(|_| self.next()).collect();
        Uint::from_limbs(limbs)
    }

    fn field(&mut self) -> FieldId {
        FieldId::ALL[self.below(FieldId::ALL.len() as u64) as usize]
    }

    fn point(&mut self) -> EcPoint {
        if self.below(4) == 0 {
            EcPoint::infinity()
        } else {
            EcPoint::affine(self.uint(), self.uint())
        }
    }

    fn text(&mut self) -> String {
        let chars = ['a', 'Z', '0', ' ', '{', '"', 'é', '∑', '🦀'];
        (0..self.below(40))
            .map(|_| chars[self.below(chars.len() as u64) as usize])
            .collect()
    }

    fn request(&mut self) -> Request {
        let op = match self.below(4) {
            0 => Op::Mul {
                width: self.below(1 << 20) as usize,
                a: self.uint(),
                b: self.uint(),
            },
            1 => Op::ModExp {
                field: self.field(),
                base: self.uint(),
                exp: self.uint(),
            },
            2 => Op::EcAdd {
                field: self.field(),
                p: self.point(),
                q: self.point(),
            },
            _ => Op::EcMul {
                field: self.field(),
                k: self.uint(),
                p: self.point(),
            },
        };
        Request {
            id: self.next(),
            tenant: self.next() as u16,
            arrival_cycle: self.next(),
            op,
        }
    }

    fn response(&mut self) -> Response {
        match self.below(3) {
            0 => Response::Ok {
                id: self.next(),
                result: if self.below(2) == 0 {
                    ResponsePayload::Value(self.uint())
                } else {
                    ResponsePayload::Point(self.point())
                },
                queue_cycles: self.next(),
                service_cycles: self.next(),
                farm: self.next() as u32,
            },
            1 => Response::Shed {
                id: self.next(),
                reason: if self.below(2) == 0 {
                    ShedReason::RateLimited
                } else {
                    ShedReason::QueueFull
                },
            },
            _ => Response::Error {
                id: self.next(),
                message: self.text(),
            },
        }
    }

    fn control_request(&mut self) -> ControlRequest {
        if self.below(2) == 0 {
            ControlRequest::HealthProbe
        } else {
            ControlRequest::DiagnosticsDump
        }
    }

    fn control_response(&mut self) -> ControlResponse {
        if self.below(2) == 0 {
            ControlResponse::Health {
                state: self.below(3) as u8,
                submitted: self.next(),
                served: self.next(),
                shed: self.next(),
                errors: self.next(),
                journal_events: self.next(),
                journal_dropped: self.next(),
            }
        } else {
            ControlResponse::Diagnostics { json: self.text() }
        }
    }

    /// One valid frame of a random kind, checked to round-trip: the
    /// value decodes back, and the frame re-encodes byte for byte.
    fn frame(&mut self) -> Result<Vec<u8>, TestCaseError> {
        macro_rules! round_trip {
            ($value:expr, $encode:ident, $decode:ident) => {{
                let value = $value;
                let frame = $encode(&value);
                let decoded = $decode(&frame);
                prop_assert_eq!(&decoded, &Ok(value));
                prop_assert_eq!($encode(&decoded.unwrap()), frame.clone());
                frame
            }};
        }
        Ok(match self.below(4) {
            0 => round_trip!(self.request(), encode_request, decode_request),
            1 => round_trip!(self.response(), encode_response, decode_response),
            2 => round_trip!(
                self.control_request(),
                encode_control_request,
                decode_control_request
            ),
            _ => round_trip!(
                self.control_response(),
                encode_control_response,
                decode_control_response
            ),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Valid frames round-trip; every prefix of one and every
    /// single-bit flip of one decodes without panicking or
    /// overallocating.
    #[test]
    fn valid_truncated_and_flipped_frames(seed in any::<u64>()) {
        let mut draw = Draw(seed);
        let frame = draw.frame()?;
        decode_all(&frame)?;
        for cut in 0..frame.len() {
            decode_all(&frame[..cut])?;
        }
        for _ in 0..8 {
            let mut flipped = frame.clone();
            let bit = draw.below(8 * frame.len() as u64) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_all(&flipped)?;
        }
    }

    /// Random bytes, most behind a valid header so the decoders get
    /// past the magic and version checks.
    #[test]
    fn random_frames(
        header in any::<bool>(),
        kind in 0u8..10,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut frame = if header { vec![b'C', b'S', 1, kind] } else { Vec::new() };
        frame.extend(body);
        decode_all(&frame)?;
    }
}

/// Declared lengths far past the frame are rejected before any
/// buffer of that size is allocated: one above the payload cap, one
/// under it but longer than the bytes that follow.
#[test]
fn huge_declared_lengths_allocate_nothing_large() {
    let mut error = vec![b'C', b'S', 1, 3];
    error.extend_from_slice(&0u64.to_le_bytes());
    error.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_response(&error),
        Err(WireError::PayloadTooLong(u32::MAX as usize))
    );
    decode_all(&error).unwrap();

    let mut mul = vec![b'C', b'S', 1, 0];
    mul.extend_from_slice(&[0; 8 + 2 + 8 + 1 + 4]);
    mul.extend_from_slice(&((1u32 << 20) - 1).to_le_bytes());
    mul.extend_from_slice(&[0xff; 16]);
    assert_eq!(decode_request(&mul), Err(WireError::Truncated));
    decode_all(&mul).unwrap();
}
