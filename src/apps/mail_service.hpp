// IMAP-style mailbox service — the paper's second motivating legacy
// protocol ("standardized protocols such as HTTP and IMAP are dominant",
// §I). A deliberately line-based, text protocol to show the Troxy needs
// nothing from a protocol beyond message boundaries and a read/write
// classifier:
//
//   LIST <mailbox>              → "N <id> <id> …"          (read)
//   FETCH <mailbox> <id>        → the message text           (read)
//   APPEND <mailbox> <text>     → "OK <id>"                  (write)
//   EXPUNGE <mailbox> <id>      → "OK" / "NO such message"   (write)
//
// State keys partition by mailbox, so the fast-read cache serves repeated
// LIST/FETCH traffic (the dominant IMAP pattern) and any APPEND/EXPUNGE
// on a mailbox invalidates exactly that mailbox's cached reads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "hybster/service.hpp"

namespace troxy::apps {

class MailService final : public hybster::Service {
  public:
    [[nodiscard]] hybster::RequestInfo classify(
        ByteView request) const override;
    Bytes execute(ByteView request) override;
    [[nodiscard]] Bytes checkpoint() const override;
    void restore(ByteView snapshot) override;
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override;

    static Bytes make_list(std::string_view mailbox);
    static Bytes make_fetch(std::string_view mailbox, std::uint64_t id);
    static Bytes make_append(std::string_view mailbox,
                             std::string_view text);
    static Bytes make_expunge(std::string_view mailbox, std::uint64_t id);

    [[nodiscard]] std::size_t message_count(const std::string& mailbox) const;

  private:
    struct Mailbox {
        std::uint64_t next_id = 1;
        std::map<std::uint64_t, std::string> messages;
    };

    /// Transparent comparator: lookups go through a borrowed name view.
    std::map<std::string, Mailbox, std::less<>> mailboxes_;
};

}  // namespace troxy::apps
