"""Adaptive control plane: deterministic, cycle-driven feedback loops.

Controllers close the loop over signals the repo already computes — the
transfer queue's public counters, the scheduler's sojourn/shed windows,
per-tenant load — and re-plan only at fixed window boundaries, so every
decision is a pure function of public aggregates and the decision log
replays byte-identically.  The obliviousness audit
(``repro.obs.audit.audit_adaptive_control``) holds the control plane to
exactly that: adapting must not become a side channel.
"""
