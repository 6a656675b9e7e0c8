//! The paper's audio-visual feature extraction scheme (§5.2–§5.3).

pub mod audio;
pub mod endpoint;
#[cfg(test)]
mod reference;
pub mod vector;
pub mod video;
