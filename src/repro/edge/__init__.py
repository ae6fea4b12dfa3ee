"""EdgeTier: bounded-staleness edge reads with a graceful-degradation
ladder in front of the replicated core.  See docs/EDGE.md."""
