//! Component microbenches (§5.3's breakdown at the operation level):
//! stable marriage, relevance scoring, feature engineering, impacts, and
//! the substrate hot loops (matmul, cosine, Jaro–Winkler, tokenizer).

use criterion::{criterion_group, criterion_main, Criterion};

// The bench binary runs with the tracking allocator installed — exactly how
// the shipped binaries run — so the `prof` group below measures the real
// cost of the wrapper, not a simulation of it.
wym_obs::install_tracking_alloc!();
use wym_bench::{bench_dataset_hard, fitted_model};
use wym_core::algorithm1::{
    discover_units, discover_units_cached, discover_units_reference, DiscoveryConfig,
};
use wym_core::features::{featurize, full_specs};
use wym_core::pairing::{get_sm_pairs, get_sm_pairs_cached, PairingSim, SimMatrix};
use wym_core::TokenizedRecord;
use wym_embed::{Embedder, EmbedderKind};
use wym_linalg::vector::cosine;
use wym_linalg::{Matrix, Rng64};
use wym_strsim::jaro_winkler;
use wym_tokenize::Tokenizer;

/// One entity's tokens, per attribute.
type AttrTokens = Vec<Vec<String>>;

fn bench(c: &mut Criterion) {
    let mut rng = Rng64::new(0);

    // Substrate hot loops.
    {
        let a = Matrix::randn(64, 128, 1.0, &mut rng);
        let b = Matrix::randn(128, 300, 1.0, &mut rng);
        c.bench_function("linalg_matmul_64x128x300", |bch| bch.iter(|| a.matmul(&b)));
        let va: Vec<f32> = (0..64).map(|_| rng.normal() as f32).collect();
        let vb: Vec<f32> = (0..64).map(|_| rng.normal() as f32).collect();
        c.bench_function("vector_cosine_64", |bch| bch.iter(|| cosine(&va, &vb)));
        c.bench_function("strsim_jaro_winkler", |bch| {
            bch.iter(|| jaro_winkler("exchange server external", "exch srvr external"))
        });
        // Each text bench has a non-ASCII twin: every benchmark dataset is
        // ASCII, and non-ASCII text takes other branches (`to_lowercase`,
        // character-boundary n-gram windows).
        let tok = Tokenizer::default();
        c.bench_function("tokenize_product_title", |bch| {
            bch.iter(|| tok.tokenize("sony digital camera with lens kit dslra200w 37.63"))
        });
        c.bench_function("tokenize_product_title_unicode", |bch| {
            bch.iter(|| tok.tokenize("Café Zürich straße ΣΟΦΙΑ 37,63"))
        });
        let emb = Embedder::new_static(64, 0);
        c.bench_function("embed_token", |bch| bch.iter(|| emb.embed_token_static("dslra200w")));
        c.bench_function("embed_token_unicode", |bch| {
            bch.iter(|| emb.embed_token_static("zürich"))
        });
    }

    // Kernel-layer dispatch: every implementation the host supports —
    // scalar always, plus AVX2+FMA / AVX-512 as the CPU exposes
    // them — on the same inputs, labeled by dispatch name. All variants
    // return bit-identical results; only the speed differs. The historical
    // acceptance target (best ≥2x scalar on dot/cosine at d=300) reads off
    // the `_scalar`-suffixed vs best-impl entries.
    {
        use wym_linalg::kernels::{
            available, axpy_with, cosine_with, dist_sq_with, dot_i8_with, dot_with,
        };
        let mut g = c.benchmark_group("kernels");
        for &d in &[64usize, 300] {
            let a: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            let b: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            let qa: Vec<i8> = (0..d).map(|i| ((i * 37) % 255) as i8).collect();
            let qb: Vec<i8> = (0..d).map(|i| ((i * 91) % 255) as i8).collect();
            for imp in available() {
                let n = imp.name();
                g.bench_function(&format!("dot_{d}_{n}"), |bch| {
                    bch.iter(|| dot_with(imp, &a, &b))
                });
                g.bench_function(&format!("cosine_{d}_{n}"), |bch| {
                    bch.iter(|| cosine_with(imp, &a, &b))
                });
                g.bench_function(&format!("dist_sq_{d}_{n}"), |bch| {
                    bch.iter(|| dist_sq_with(imp, &a, &b))
                });
                let mut y = b.clone();
                g.bench_function(&format!("axpy_{d}_{n}"), |bch| {
                    bch.iter(|| axpy_with(imp, 0.37, &a, &mut y))
                });
                g.bench_function(&format!("dot_i8_{d}_{n}"), |bch| {
                    bch.iter(|| dot_i8_with(imp, &qa, &qb))
                });
            }
        }
        // The quantization kernels: max-reduce + row quantization, the
        // per-row cost of building an int8 table.
        use wym_linalg::kernels::{max_abs_with, quantize_i8_with};
        for &d in &[64usize, 300] {
            let v: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            for imp in available() {
                let n = imp.name();
                g.bench_function(&format!("max_abs_{d}_{n}"), |bch| {
                    bch.iter(|| max_abs_with(imp, &v))
                });
                let mut q = vec![0i8; d];
                g.bench_function(&format!("quantize_i8_{d}_{n}"), |bch| {
                    bch.iter(|| quantize_i8_with(imp, &v, 127.0, &mut q))
                });
            }
        }
        g.finish();
    }

    // Stable marriage on a realistic record.
    {
        let dataset = bench_dataset_hard(10);
        let tok = Tokenizer::default();
        let emb = Embedder::new_static(64, 0);
        let rec = TokenizedRecord::from_pair(&dataset.pairs[0], &tok, &emb);
        let left = rec.left.all_refs();
        let right = rec.right.all_refs();
        c.bench_function("pairing_stable_marriage", |bch| {
            bch.iter(|| get_sm_pairs(&rec, &left, &right, 0.6, PairingSim::Embedding, false))
        });
    }

    // Fused tokenize→embed: the arena path with matrix recycling
    // (steady-state serving — allocation-free after warmup) against the
    // nested alloc-per-record reference it is bit-identical to. Both embed
    // the same pre-tokenized 10-record workload. The `_siamese` case runs
    // the fused path of the default `Siamese` kind, whose trained
    // projection maps each entity's rows with one GEMM.
    {
        let dataset = bench_dataset_hard(10);
        let tok = Tokenizer::default();
        let emb = Embedder::new_static(64, 0);
        let token_lists: Vec<(AttrTokens, AttrTokens)> = dataset
            .pairs
            .iter()
            .map(|p| {
                (
                    tok.tokenize_attributes(&p.left.values),
                    tok.tokenize_attributes(&p.right.values),
                )
            })
            .collect();
        let mut g = c.benchmark_group("fused_embed");
        g.bench_function("embed_swa10_reference_alloc", |bch| {
            bch.iter(|| {
                token_lists
                    .iter()
                    .map(|(lt, rt)| emb.embed_entity(lt).len() + emb.embed_entity(rt).len())
                    .sum::<usize>()
            })
        });
        g.bench_function("embed_swa10_fused_arena", |bch| {
            bch.iter(|| {
                token_lists
                    .iter()
                    .map(|(lt, rt)| {
                        let l = emb.embed_entity_fused(lt);
                        let r = emb.embed_entity_fused(rt);
                        let n = l.n_rows() + r.n_rows();
                        wym_embed::recycle(l);
                        wym_embed::recycle(r);
                        n
                    })
                    .sum::<usize>()
            })
        });
        let records: Vec<_> = token_lists
            .iter()
            .zip(&dataset.pairs)
            .map(|((lt, rt), p)| (lt.clone(), rt.clone(), p.label))
            .collect();
        let siamese = Embedder::fit(EmbedderKind::Siamese, 64, 0, &records);
        g.bench_function("embed_swa10_fused_siamese", |bch| {
            bch.iter(|| {
                token_lists
                    .iter()
                    .map(|(lt, rt)| {
                        let l = siamese.embed_entity_fused(lt);
                        let r = siamese.embed_entity_fused(rt);
                        let n = l.n_rows() + r.n_rows();
                        wym_embed::recycle(l);
                        wym_embed::recycle(r);
                        n
                    })
                    .sum::<usize>()
            })
        });
        g.finish();
    }

    // This PR's perf targets: similarity caching in discovery, blocked GEMM.
    {
        let mut g = c.benchmark_group("simcache");
        let dataset = bench_dataset_hard(10);
        let tok = Tokenizer::default();
        let emb = Embedder::new_static(64, 0);
        let rec = TokenizedRecord::from_pair(&dataset.pairs[0], &tok, &emb);
        let left = rec.left.all_refs();
        let right = rec.right.all_refs();
        let matrix = SimMatrix::build(&rec, PairingSim::Embedding);
        let config = DiscoveryConfig::default();
        g.bench_function("sm_pairs_uncached", |bch| {
            bch.iter(|| get_sm_pairs(&rec, &left, &right, 0.6, PairingSim::Embedding, false))
        });
        g.bench_function("sm_pairs_cached", |bch| {
            bch.iter(|| get_sm_pairs_cached(&matrix, &left, &right, 0.6, false))
        });
        // Full discovery over the 10-record S-WA workload: the shipped
        // cached path, the prebuilt-matrix variant, and the per-lookup
        // reference (the pre-caching implementation) for the speedup ratio.
        let recs: Vec<TokenizedRecord> = dataset
            .pairs
            .iter()
            .map(|p| TokenizedRecord::from_pair(p, &tok, &emb))
            .collect();
        g.bench_function("simmatrix_build_swa10", |bch| {
            bch.iter(|| {
                recs.iter()
                    .map(|r| SimMatrix::build(r, config.sim).sim(
                        wym_core::record::TokenRef { attr: 0, pos: 0 },
                        wym_core::record::TokenRef { attr: 0, pos: 0 },
                        false,
                    ))
                    .sum::<f32>()
            })
        });
        g.bench_function("discover_units_swa10", |bch| {
            bch.iter(|| recs.iter().map(|r| discover_units(r, &config).len()).sum::<usize>())
        });
        g.bench_function("discover_units_swa10_prebuilt", |bch| {
            bch.iter(|| {
                recs.iter()
                    .map(|r| {
                        let m = SimMatrix::build(r, config.sim);
                        discover_units_cached(r, &m, &config).len()
                    })
                    .sum::<usize>()
            })
        });
        g.bench_function("discover_units_swa10_reference", |bch| {
            bch.iter(|| {
                recs.iter().map(|r| discover_units_reference(r, &config).len()).sum::<usize>()
            })
        });
        g.finish();

        // The relevance scorer's GEMM shapes (a 128-d input, hidden layers
        // 300-64-32, batch 256): the hidden-layer forwards (300 -> 64 and
        // 64 -> 32, whose `ikj_axpy` entries reproduce the pre-blocking
        // kernel, one axpy per scalar of A, as the before/after reference)
        // and the three training GEMMs of the widest layer — the input
        // layer's forward, its ∂W = Xᵀ·δ, and the ∂X = δ·Wᵀ the second
        // layer propagates back.
        let ikj_axpy = |a: &Matrix, b: &Matrix| -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for (k, &v) in a.row(i).iter().enumerate() {
                    if v != 0.0 {
                        wym_linalg::vector::axpy(v, b.row(k), out.row_mut(i));
                    }
                }
            }
            out
        };
        let mut g = c.benchmark_group("gemm");
        let a = Matrix::randn(256, 300, 1.0, &mut rng);
        let b = Matrix::randn(300, 64, 1.0, &mut rng);
        g.bench_function("matmul_256x300x64", |bch| bch.iter(|| a.matmul(&b)));
        g.bench_function("matmul_256x300x64_ikj_axpy", |bch| bch.iter(|| ikj_axpy(&a, &b)));
        let a2 = Matrix::randn(256, 64, 1.0, &mut rng);
        let b2 = Matrix::randn(64, 32, 1.0, &mut rng);
        g.bench_function("matmul_256x64x32", |bch| bch.iter(|| a2.matmul(&b2)));
        g.bench_function("matmul_256x64x32_ikj_axpy", |bch| bch.iter(|| ikj_axpy(&a2, &b2)));
        // The scorer's 1-wide output layer: one `zmm` panel on AVX-512.
        let a3 = Matrix::randn(256, 32, 1.0, &mut rng);
        let b3 = Matrix::randn(32, 1, 1.0, &mut rng);
        g.bench_function("matmul_256x32x1", |bch| bch.iter(|| a3.matmul(&b3)));
        let x = Matrix::randn(256, 128, 1.0, &mut rng);
        let w1 = Matrix::randn(128, 300, 0.1, &mut rng);
        let d1 = Matrix::randn(256, 300, 1.0, &mut rng);
        let d2 = Matrix::randn(256, 64, 1.0, &mut rng);
        let w2 = Matrix::randn(300, 64, 0.1, &mut rng);
        g.bench_function("matmul_256x128x300", |bch| bch.iter(|| x.matmul(&w1)));
        // The first layer's training forward: bias and ReLU in the store.
        let b1 = Matrix::randn(1, 300, 0.1, &mut rng);
        let (mut pre, mut act) = (Matrix::zeros(0, 0), Matrix::zeros(256, 300));
        g.bench_function("matmul_bias_relu_256x128x300", |bch| {
            bch.iter(|| {
                let relu = wym_linalg::kernels::Relu::Into(act.as_mut_slice());
                x.matmul_bias_into(&w1, b1.as_slice(), &mut pre, relu)
            })
        });
        g.bench_function("t_matmul_256x128x300", |bch| bch.iter(|| x.t_matmul(&d1)));
        g.bench_function("matmul_t_256x64x300", |bch| bch.iter(|| d2.matmul_t(&w2)));
        g.finish();

        // One epoch of the scorer's training step at its paper shape:
        // 1024 rows of 128-d features, 300-64-32-1, batch 256; and its
        // inference forward.
        let mut g = c.benchmark_group("nn");
        let x = Matrix::randn(1024, 128, 1.0, &mut rng);
        let y = Matrix::from_vec(1024, 1, x.iter_rows().map(|r| r[0].tanh()).collect());
        let mlp = wym_nn::Mlp::new(&wym_nn::MlpConfig::scorer(128, 0));
        let cfg = wym_nn::TrainConfig { epochs: 1, batch_size: 256, ..Default::default() };
        g.bench_function("train_epoch_scorer", |bch| {
            bch.iter(|| wym_nn::train::fit(&mut mlp.clone(), &x, &y, &cfg))
        });
        // The scorer's inference forward at one explained record's units.
        let x25 = Matrix::randn(25, 128, 1.0, &mut rng);
        g.bench_function("scorer_predict_25", |bch| bch.iter(|| mlp.predict(&x25)));
        // The Siamese embedder's training at its default shape: 300 pairs
        // of 64-d unit vectors (half matches, half unrelated), 10 epochs.
        let unit = |rng: &mut Rng64| {
            let mut v: Vec<f32> = (0..64).map(|_| rng.normal() as f32).collect();
            wym_linalg::vector::normalize(&mut v);
            v
        };
        let pairs: Vec<(Vec<f32>, Vec<f32>, bool)> = (0..300)
            .map(|i| {
                let left = unit(&mut rng);
                let right = if i % 2 == 0 {
                    let mut near: Vec<f32> =
                        left.iter().map(|v| v + 0.2 * rng.normal() as f32).collect();
                    wym_linalg::vector::normalize(&mut near);
                    near
                } else {
                    unit(&mut rng)
                };
                (left, right, i % 2 == 0)
            })
            .collect();
        let siamese = wym_nn::SiameseConfig::default();
        g.bench_function("siamese_train", |bch| {
            bch.iter(|| wym_nn::SiameseProjection::new(64, &siamese).train(&pairs, &siamese))
        });
        g.finish();
    }

    // The classifier pool at the `fit` workload's pool-input shape: 60
    // training rows × 81 engineered features, most of them count-like
    // columns full of ties (the rest quarter steps), plus 20 validation
    // rows for the selection.
    {
        let mut g = c.benchmark_group("pool");
        let mut rng = Rng64::new(81);
        let mut pool_rows = |n: usize| {
            let mut x = Matrix::zeros(0, 81);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let row: Vec<f32> = (0..81)
                    .map(|j| match j % 3 {
                        0 | 1 => rng.gen_range(2 + j % 5) as f32,
                        _ => rng.gen_range(9) as f32 * 0.25 - 1.0,
                    })
                    .collect();
                let score = row[0] + row[2] - row[3] + 2.0 * row[5];
                y.push(u8::from(score + rng.normal() as f32 > 2.0));
                x.push_row(&row);
            }
            (x, y)
        };
        let (x, y) = pool_rows(60);
        let (xv, yv) = pool_rows(20);
        use wym_ml::Classifier;
        g.bench_function("gbm_fit", |bch| {
            bch.iter(|| wym_ml::boost::GradientBoosting::new(7).fit(&x, &y))
        });
        g.bench_function("adaboost_fit", |bch| {
            bch.iter(|| wym_ml::boost::AdaBoost::new(7).fit(&x, &y))
        });
        let pool = wym_ml::ClassifierPool { seed: 7, n_threads: 1, ..Default::default() };
        g.bench_function("fit_select", |bch| bch.iter(|| pool.fit_select(&x, &y, &xv, &yv).val_f1));
        g.finish();
    }

    // Observability guard: full discovery with recording disabled (the
    // default no-op path) vs enabled (traced). The disabled entry must stay
    // within noise of `simcache/discover_units_swa10`; the traced entry
    // bounds the cost a `--trace` run adds per record.
    {
        let dataset = bench_dataset_hard(10);
        let tok = Tokenizer::default();
        let emb = Embedder::new_static(64, 0);
        let recs: Vec<TokenizedRecord> = dataset
            .pairs
            .iter()
            .map(|p| TokenizedRecord::from_pair(p, &tok, &emb))
            .collect();
        let config = DiscoveryConfig::default();
        let mut g = c.benchmark_group("obs");
        g.bench_function("discover_units_swa10_noop", |bch| {
            let rec = std::sync::Arc::new(wym_obs::Recorder::new());
            wym_obs::with_recorder(rec, || {
                bch.iter(|| {
                    recs.iter().map(|r| discover_units(r, &config).len()).sum::<usize>()
                })
            });
        });
        g.bench_function("discover_units_swa10_traced", |bch| {
            let rec = std::sync::Arc::new(wym_obs::Recorder::new_enabled());
            wym_obs::with_recorder(rec, || {
                bch.iter(|| {
                    recs.iter().map(|r| discover_units(r, &config).len()).sum::<usize>()
                })
            });
        });
        // Flight-recorder guard (DESIGN.md §15). `_off` is the acceptance
        // pin: with no flight installed, a span+counter round trip must
        // stay within noise of the plain disabled-recorder path — the ring
        // check is one TLS read plus one relaxed atomic load. `_on` bounds
        // what the always-on rings add per event when armed.
        let span_churn = || {
            let _s = wym_obs::span("bench_flight_span");
            wym_obs::counter_add("bench.flight.counter", 1);
        };
        g.bench_function("span_counter_flight_off", |bch| bch.iter(span_churn));
        g.bench_function("span_counter_flight_on", |bch| {
            let flight = std::sync::Arc::new(wym_obs::Flight::new_enabled(4096));
            wym_obs::ring::with_flight(flight, || bch.iter(span_churn));
        });
        g.finish();
    }

    // Memory-profiler guard: an allocation-heavy workload under the three
    // allocator states. `_disabled` is the acceptance pin — the tracking
    // wrapper with profiling off (one relaxed atomic load per allocator
    // call) must stay within noise of what plain System costs; `_enabled`
    // and `_in_span` bound what `--profile-mem` adds per allocation.
    {
        let tok = Tokenizer::default();
        let churn = |tok: &Tokenizer| {
            // Tokenization is the pipeline's allocation churn in miniature:
            // per-token Strings plus the collecting Vec.
            tok.tokenize("sony digital camera with lens kit dslra200w 37.63").len()
        };
        let mut g = c.benchmark_group("prof");
        wym_obs::prof::set_enabled(false);
        g.bench_function("tokenize_alloc_disabled", |bch| bch.iter(|| churn(&tok)));
        wym_obs::prof::set_enabled(true);
        g.bench_function("tokenize_alloc_enabled", |bch| bch.iter(|| churn(&tok)));
        g.bench_function("tokenize_alloc_in_span", |bch| {
            let rec = std::sync::Arc::new(wym_obs::Recorder::new_enabled());
            wym_obs::with_recorder(rec, || {
                let _s = wym_obs::span("bench");
                bch.iter(|| churn(&tok))
            });
        });
        wym_obs::prof::set_enabled(false);
        g.finish();
    }

    // Blocking at scale (DESIGN.md §11), on a 5k-record slice of the
    // synthetic dedup workload: index build, the posting-walk lexical query
    // pass, the int8-quantized ANN scan, and the exact f32 re-score of one
    // survivor set. `dot_i8` vs its scalar twin pins the integer-kernel
    // speedup the quantized scan rides on.
    {
        use wym_block::{index::TokenIndex, AnnConfig, AnnIndex, SynthConfig};
        use wym_linalg::kernels::{cosine_i8_with, cosine_with, detect_best, KernelImpl};
        let table = wym_block::generate(&SynthConfig {
            n_records: 5_000,
            dup_frac: 0.2,
            seed: 5,
            medium_vocab: 1_000,
        });
        let texts: Vec<String> =
            table.records.iter().map(wym_data::Entity::full_text).collect();
        let best = detect_best();
        let mut g = c.benchmark_group("blocking");
        g.sample_size(10);
        g.bench_function("index_build_5k", |bch| {
            bch.iter(|| TokenIndex::build(&texts, 0.01, 16, 1))
        });
        let index = TokenIndex::build(&texts, 0.01, 16, 1);
        g.bench_function("lexical_top_candidates_5k", |bch| {
            bch.iter(|| index.top_candidates(10, 1))
        });
        let ann_config = AnnConfig::default();
        g.bench_function("ann_index_build_5k", |bch| {
            bch.iter(|| {
                AnnIndex::build(index.vocab(), index.all_record_tokens(), &ann_config, best, 1)
            })
        });
        let ann = AnnIndex::build(index.vocab(), index.all_record_tokens(), &ann_config, best, 1);
        g.bench_function("ann_quantized_scan_5k", |bch| {
            bch.iter(|| {
                (0..1000u32).map(|qi| ann.quantized_survivors(qi).len()).sum::<usize>()
            })
        });
        g.bench_function("ann_exact_rescore_1k", |bch| {
            bch.iter(|| {
                (0..1000usize)
                    .map(|i| ann.exact_cosine(i, (i + 1) % 5_000, best))
                    .sum::<f32>()
            })
        });
        let qt = ann.quantized();
        g.bench_function("cosine_i8_64", |bch| {
            bch.iter(|| cosine_i8_with(best, qt.row(0), qt.row(1), qt.scale(0), qt.scale(1)))
        });
        g.bench_function("cosine_i8_64_scalar", |bch| {
            bch.iter(|| {
                cosine_i8_with(KernelImpl::Scalar, qt.row(0), qt.row(1), qt.scale(0), qt.scale(1))
            })
        });
        g.bench_function("cosine_f32_64", |bch| {
            bch.iter(|| cosine_with(best, ann.vector(0), ann.vector(1)))
        });
        g.finish();
    }

    // Scoring + featurization + impacts on a fitted model.
    {
        let (model, _d, _s, test) = fitted_model(150);
        let proc = model.process(&test[0]);
        c.bench_function("scorer_score_units", |bch| {
            bch.iter(|| model.scorer().score_units(&proc.record, &proc.units))
        });
        let specs = full_specs(5);
        c.bench_function("features_featurize", |bch| {
            bch.iter(|| featurize(&specs, &proc.units, &proc.relevances))
        });
        c.bench_function("matcher_impacts", |bch| {
            bch.iter(|| model.matcher().impacts(&proc.units, &proc.relevances))
        });
        c.bench_function("pipeline_process_one", |bch| bch.iter(|| model.process(&test[0])));
        c.bench_function("pipeline_explain_one", |bch| bch.iter(|| model.explain(&test[0])));
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
