//! Frame sources: the deterministic synthetic substitute for the Foreman
//! CIF sequence, and a planar-YUV file reader for real sequences.

use std::path::Path;

use crate::yuv::YuvFrame;

/// Supplies frames by index. `None` signals end-of-stream — the P2G read
/// kernel stops storing, which terminates the pipeline exactly as in the
/// paper ("the read loop ends when the kernel stops storing to the next
/// age").
pub trait FrameSource: Send + Sync {
    /// The frame at index `n`, or `None` past the end.
    fn frame(&self, n: u64) -> Option<YuvFrame>;
    /// Frame width in pixels.
    fn width(&self) -> usize;
    /// Frame height in pixels.
    fn height(&self) -> usize;
}

/// Deterministic synthetic video: a moving diagonal gradient with a
/// traveling bright disc and per-pixel structured noise. Content-wise this
/// is a stand-in for the Foreman test sequence — same resolution and frame
/// count, similar entropy structure (smooth regions + edges + texture) so
/// DCT/VLC cost is comparable.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    width: usize,
    height: usize,
    frames: u64,
    seed: u64,
}

impl SyntheticVideo {
    /// A synthetic sequence; `frames` bounds the stream length.
    pub fn new(width: usize, height: usize, frames: u64, seed: u64) -> SyntheticVideo {
        SyntheticVideo {
            width,
            height,
            frames,
            seed,
        }
    }

    /// The paper's evaluation setting: Foreman-like CIF, 50 frames.
    pub fn foreman_like(frames: u64) -> SyntheticVideo {
        SyntheticVideo::new(352, 288, frames, 0xF0E1D2C3)
    }
}

#[inline]
fn hash3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= b.wrapping_mul(0xC2B2AE3D27D4EB4F);
    x ^= c.wrapping_mul(0x165667B19E3779F9);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 32;
    x
}

impl FrameSource for SyntheticVideo {
    fn frame(&self, n: u64) -> Option<YuvFrame> {
        if n >= self.frames {
            return None;
        }
        let mut f = YuvFrame::new(self.width, self.height);
        let (w, h) = (self.width as i64, self.height as i64);
        // Disc position orbits the frame center.
        let t = n as f64 * 0.31;
        let cx = (w as f64 / 2.0 + (w as f64 / 3.0) * t.cos()) as i64;
        let cy = (h as f64 / 2.0 + (h as f64 / 3.0) * t.sin()) as i64;
        let r2 = (h / 6) * (h / 6);

        for y in 0..h {
            for x in 0..w {
                // Moving gradient + edges + noise.
                let grad = (x + y + 2 * n as i64) % 256;
                let disc = if (x - cx) * (x - cx) + (y - cy) * (y - cy) < r2 {
                    90
                } else {
                    0
                };
                let noise = (hash3(self.seed, n, y as u64, x as u64) % 17) as i64;
                let v = (grad / 2 + disc + noise + 40).clamp(0, 255);
                f.y[(y * w + x) as usize] = v as u8;
            }
        }
        for cy_ in 0..h / 2 {
            for cx_ in 0..w / 2 {
                let i = (cy_ * w / 2 + cx_) as usize;
                f.u[i] = (96 + ((cx_ + n as i64) % 64)) as u8;
                f.v[i] = (160 - ((cy_ + 2 * n as i64) % 64)) as u8;
            }
        }
        Some(f)
    }

    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }
}

/// Reads planar I420 frames from a `.yuv` file (the format of standard
/// test sequences such as Foreman). The whole file is loaded eagerly.
pub struct YuvFileSource {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl YuvFileSource {
    /// Load a raw planar I420 file.
    pub fn open(
        path: impl AsRef<Path>,
        width: usize,
        height: usize,
    ) -> std::io::Result<YuvFileSource> {
        Ok(YuvFileSource {
            width,
            height,
            data: std::fs::read(path)?,
        })
    }
}

impl FrameSource for YuvFileSource {
    fn frame(&self, n: u64) -> Option<YuvFrame> {
        let fsz = YuvFrame::i420_size(self.width, self.height);
        let start = n as usize * fsz;
        if start + fsz > self.data.len() {
            return None;
        }
        YuvFrame::from_i420(self.width, self.height, &self.data[start..start + fsz])
    }

    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl YuvFileSource {
        /// Wrap an in-memory I420 byte stream.
        fn from_bytes(data: Vec<u8>, width: usize, height: usize) -> YuvFileSource {
            YuvFileSource {
                width,
                height,
                data,
            }
        }

        /// Number of whole frames available.
        fn frame_count(&self) -> u64 {
            (self.data.len() / YuvFrame::i420_size(self.width, self.height)) as u64
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = SyntheticVideo::foreman_like(3);
        let b = SyntheticVideo::foreman_like(3);
        assert_eq!(a.frame(2), b.frame(2));
    }

    #[test]
    fn synthetic_ends_at_frame_count() {
        let v = SyntheticVideo::new(32, 32, 2, 1);
        assert!(v.frame(0).is_some());
        assert!(v.frame(1).is_some());
        assert!(v.frame(2).is_none());
    }

    #[test]
    fn synthetic_frames_differ_over_time() {
        let v = SyntheticVideo::foreman_like(2);
        assert_ne!(v.frame(0), v.frame(1));
    }

    #[test]
    fn synthetic_has_texture() {
        // DCT cost depends on non-trivial content: the frame must not be
        // flat.
        let f = SyntheticVideo::foreman_like(1).frame(0).unwrap();
        let distinct: std::collections::HashSet<u8> = f.y.iter().copied().collect();
        assert!(
            distinct.len() > 50,
            "only {} distinct luma values",
            distinct.len()
        );
    }

    #[test]
    fn file_source_round_trip() {
        let v = SyntheticVideo::new(32, 16, 2, 7);
        let mut bytes = Vec::new();
        for n in 0..2 {
            let f = v.frame(n).unwrap();
            bytes.extend_from_slice(&f.y);
            bytes.extend_from_slice(&f.u);
            bytes.extend_from_slice(&f.v);
        }
        let src = YuvFileSource::from_bytes(bytes, 32, 16);
        assert_eq!(src.frame_count(), 2);
        assert_eq!(src.frame(1), v.frame(1));
        assert!(src.frame(2).is_none());
    }
}
