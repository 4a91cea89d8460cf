//! Motion JPEG encoding — the paper's headline workload (Section VII-B).
//!
//! MJPEG encodes a video as a sequence of independently compressed JPEG
//! frames. The paper's pipeline splits each YUV frame into 8×8 macro-blocks,
//! runs DCT + quantization per block (the compute-intensive part, expressed
//! as one kernel instance per block so P2G can parallelize freely), and a
//! final VLC/write kernel entropy-codes the blocks into the output
//! bitstream.
//!
//! This crate provides the full substrate built from scratch:
//!
//! * [`yuv`] — planar YUV 4:2:0 frames and macro-block extraction
//!   (the paper says "4:2:2" but its block counts — 1584 luma / 396 chroma
//!   for CIF — are those of 4:2:0, which is what we implement).
//! * [`synthetic`] — a deterministic synthetic substitute for the Foreman
//!   CIF test sequence (same resolution, frame count and data volume), plus
//!   a planar-YUV file reader for real sequences.
//! * [`dct`] — 8×8 forward/inverse DCT, naive (as the paper's prototype
//!   used) and the AAN FastDCT it cites as the obvious optimization [2],
//!   plus JPEG quantization.
//! * [`huffman`] — baseline JPEG entropy coding: zigzag, run-length,
//!   canonical Huffman tables (ITU T.81 Annex K), bit writer/reader.
//! * `jpeg` — JFIF frame assembly (SOI/DQT/SOF0/DHT/SOS/EOI).
//! * [`encoder`] — the standalone single-threaded encoder used as the
//!   paper's baseline ("30 seconds on the Opteron, 19 on the Core i7").
//! * [`decode`] — a baseline JPEG decoder used to validate the encoder
//!   end-to-end (decode ∘ encode, PSNR against the source).
//! * [`avi`] — a RIFF/AVI container writer so the MJPEG output plays in
//!   standard players.
//! * [`pipeline`] — the P2G program: `init`, `read/splityuv`, `yDCT`,
//!   `uDCT`, `vDCT`, `vlc/write` kernels over aged block fields.
//! * [`serve`] — the pipeline as a remotely servable tenant: the
//!   `"mjpeg"` pipeline factory for `p2gc serve-node` and the i420 wire
//!   payload format.

pub mod avi;
pub mod dct;
pub mod decode;
pub mod encoder;
pub mod huffman;
pub(crate) mod jpeg;
pub mod pipeline;
pub mod serve;
pub mod synthetic;
pub mod yuv;

pub use avi::wrap_avi;
pub use decode::{decode_frame, decode_mjpeg, psnr};
pub use encoder::encode_standalone;
pub use pipeline::{
    build_mjpeg_program, build_mjpeg_stream_program, mjpeg_spec, mjpeg_stream_spec,
    stream_frame_parts, MjpegConfig, MjpegSink,
};
pub use serve::{mjpeg_pipeline_factory, mjpeg_registry, pack_i420};
pub use synthetic::{FrameSource, SyntheticVideo, YuvFileSource};
pub use yuv::YuvFrame;
