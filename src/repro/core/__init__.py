"""The paper's primary contribution: decay model, analysis, and policies."""
