//! Violation fixture: a panic on a frame read from the network.

pub fn frame_len(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[..4].try_into().unwrap())
}
