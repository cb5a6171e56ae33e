"""Closed-loop RAN scheduler selection: simulator, KPI pipeline, double-Q agent."""

from .agent import (BUFFER_FIELDS, AgentConfig, DoubleQAgent, Experience, ReplayBuffer,
                    double_q_target, epsilon_at, preload, read_experience_csv, sample_segments,
                    select_action, valid_segment_starts, write_experience_csv)
from .harness import (DEFAULT_PROFILES, BaselineRow, EpisodeResult, ExperimentConfig,
                      episode_seed, episode_stats, evaluate_checkpoint, run_baseline_suite,
                      run_episode, train_experiment)
from .kpi import (MANIFEST_SHA256, MANIFEST_VERSION, KpiConfig, KpiVector, compose_kpis,
                  reward_throughput, reward_ue_gap, write_manifest)
from .qnet import (QNetParams, apply_gradient, backward, forward, forward_batch, init_params,
                   soft_update)
from .sim import (CellState, SchedulerOption, SimConfig, TickObservables, UeProfile,
                  fit_traffic_profiles, generate_demands, init_cell_state, read_traffic_records,
                  schedule_prbs, spectral_efficiency, step)

__version__ = "0.1.0"
