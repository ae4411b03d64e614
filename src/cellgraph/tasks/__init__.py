"""Task heads: modality prediction, modality matching, joint embedding."""

from .common import (EpochRecord, TrainProtocol, run_training, split_cells,
                     write_run_log)
from .embedding import (EmbedConfig, EmbedModel, joint_embedding_loss,
                        pca_concat_baseline, register_embed_params,
                        train_joint_embedding)
from .matching import (MatcherConfig, MatcherModel, MatchOutput, logit_scale,
                       match_inference, match_scores, matching_losses,
                       reduce_modality, register_aux_params,
                       register_logit_scale, score_probabilities,
                       train_matcher)
from .prediction import (PredictionModel, mean_predictor_rmse, rmse_loss,
                         svd_linear_baseline, train_prediction)

__all__ = [
    "EpochRecord", "TrainProtocol", "run_training", "split_cells",
    "write_run_log",
    "EmbedConfig", "EmbedModel", "joint_embedding_loss",
    "pca_concat_baseline", "register_embed_params", "train_joint_embedding",
    "MatcherConfig", "MatcherModel", "MatchOutput", "logit_scale",
    "match_inference", "match_scores", "matching_losses", "reduce_modality",
    "register_aux_params", "register_logit_scale", "score_probabilities",
    "train_matcher",
    "PredictionModel", "mean_predictor_rmse", "rmse_loss",
    "svd_linear_baseline", "train_prediction",
]
