//! Feed-forward neural network substrate for the WYM entity-matching system.
//!
//! The paper's decision-unit relevance scorer is "a fully connected
//! feed-forward neural network … 3 hidden layers with 300, 64, and 32 nodes,
//! using relu … trained with 40 epochs, 256 elements per batch, and a
//! learning rate equal to 3·10⁻⁵" (§4.2). This crate implements exactly that
//! kind of model from scratch: dense layers with manual backpropagation,
//! MSE / binary-cross-entropy losses, the Adam optimizer, a mini-batch
//! training loop, and the siamese contrastive trainer used by the
//! SBERT-substitute embedding variant (which takes its plain SGD step in
//! place on its projection; no separate SGD optimizer exists).

pub mod activation;
pub mod layer;
pub mod mlp;
pub mod optim;
pub mod siamese;
pub mod train;

pub use activation::Activation;
pub use layer::Dense;
pub use mlp::{Loss, Mlp, MlpConfig};
pub use optim::{Adam, AdamConfig};
pub use siamese::{SiameseConfig, SiameseProjection};
pub use train::{TrainConfig, TrainReport};
