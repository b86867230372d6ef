"""Transport protocols: open-loop UDP and a simplified closed-loop TCP."""
