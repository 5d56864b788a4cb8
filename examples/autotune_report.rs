//! Inside the auto-tuning engine (§IV-D3): shows the candidate plan table
//! (Table II/III), the TLP objective per candidate, which plan the engine
//! selects for several workloads, and what the α-warp selectors choose.
//!
//! Run with: `cargo run --release --example autotune_report`

use wcycle_svd::batched::alpha::{generate_training_set, DecisionTree};
use wcycle_svd::batched::{
    ai_gram, ai_update, alpha_gcf, auto_tune, candidate_plans, tlp, V100_TLP_THRESHOLD,
};
use wcycle_svd::gpu::{Gpu, V100};

fn main() {
    // The paper's worked example: 100 matrices of 256x256 on a V100.
    let sizes = vec![(256usize, 256usize); 100];
    println!("candidate plans for m* = 256 (Table III), workload = 100 x 256^2:");
    println!(
        "{:>4} {:>6} {:>6} {:>5} {:>14} {:>8} {:>8}",
        "no.", "w", "delta", "T", "TLP (f1)", "AI1", "AI2"
    );
    for (k, plan) in candidate_plans(256).iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>6} {:>5} {:>14.0} {:>8.1} {:>8.1}",
            k + 1,
            plan.w,
            plan.delta,
            plan.threads,
            tlp(plan, &sizes),
            ai_gram(plan, V100.load_width),
            ai_update(plan, V100.load_width),
        );
    }
    let chosen = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
    println!(
        "\nthreshold {} -> engine selects w={}, delta={}, T={} (the paper's 4th candidate)",
        V100_TLP_THRESHOLD, chosen.w, chosen.delta, chosen.threads
    );
    assert_eq!((chosen.w, chosen.delta), (16, 128));

    // Other workloads.
    for (label, sizes) in [
        (
            "1 x 512^2 (single large SVD)",
            vec![(512usize, 512usize); 1],
        ),
        ("500 x 64^2 (large batch of small)", vec![(64, 64); 500]),
        ("10 x 1536^2 (few huge)", vec![(1536, 1536); 10]),
    ] {
        let p = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
        println!(
            "{label:<36} -> w={:<3} delta={:<5} T={}",
            p.w, p.delta, p.threads
        );
    }

    // α-warp selection: the GCF rule and the trained decision tree.
    println!("\nGCF α rule (threads per column pair):");
    for m_star in [8usize, 16, 32, 48, 64, 100] {
        println!(
            "  m* = {m_star:<4} -> {:>2} threads/pair",
            alpha_gcf(m_star)
        );
    }

    println!("\ntraining the decision tree on simulator-labelled batches...");
    let gpu = Gpu::new(V100);
    let set = generate_training_set(&gpu, 7);
    let tree = DecisionTree::train(&set, 4);
    println!(
        "trained on {} samples, {} decision nodes",
        set.len(),
        tree.node_count()
    );
    for (m_star, batch) in [(32usize, 1usize), (32, 200), (64, 10), (16, 500)] {
        let p = tree.predict_proba(m_star, batch);
        println!(
            "  (m*={m_star:<3} mu={batch:<4}) -> {:>2} threads/pair  probs[4,8,16,32] = {:?}",
            tree.predict(m_star, batch),
            p.map(|x| (x * 100.0).round() / 100.0)
        );
    }
}
