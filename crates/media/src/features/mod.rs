//! The paper's audio-visual feature extraction scheme (§5.2–§5.3).

pub mod audio;
pub mod endpoint;
pub mod vector;
pub mod video;

#[cfg(test)]
mod reference;
