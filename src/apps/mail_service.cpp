#include "apps/mail_service.hpp"

#include <charconv>
#include <iterator>
#include <string_view>

#include "common/serialize.hpp"

namespace troxy::apps {

namespace {

/// The request line's fields, borrowed from the request.
struct Parsed {
    std::string_view verb;
    std::string_view mailbox;
    std::string_view rest;  // id or message text
};

Parsed parse_line(ByteView request) {
    const std::string_view line(reinterpret_cast<const char*>(request.data()),
                                request.size());
    Parsed parsed;
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) {
        parsed.verb = line;
        return parsed;
    }
    parsed.verb = line.substr(0, sp1);
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
        parsed.mailbox = line.substr(sp1 + 1);
        return parsed;
    }
    parsed.mailbox = line.substr(sp1 + 1, sp2 - sp1 - 1);
    parsed.rest = line.substr(sp2 + 1);
    return parsed;
}

std::uint64_t parse_id(std::string_view text) {
    std::uint64_t id = 0;
    std::from_chars(text.data(), text.data() + text.size(), id);
    return id;
}

void append(Bytes& out, std::string_view text) {
    out.insert(out.end(), text.begin(), text.end());
}

void append_number(Bytes& out, std::uint64_t value) {
    char digits[20];
    const auto result = std::to_chars(std::begin(digits), std::end(digits),
                                      value);
    out.insert(out.end(), std::begin(digits), result.ptr);
}

/// `text` in a reply buffer from the spare list.
Bytes reply_of(std::string_view text) {
    Bytes reply = hybster::take_result_buffer();
    append(reply, text);
    return reply;
}

}  // namespace

hybster::RequestInfo MailService::classify(ByteView request) const {
    const Parsed parsed = parse_line(request);
    hybster::RequestInfo info;
    info.is_read = parsed.verb == "LIST" || parsed.verb == "FETCH";
    // Every operation touches its mailbox partition — that is the cache
    // key for LIST/FETCH replies and the conflict class for execution,
    // so disjoint mailboxes run on parallel lanes. An EXPUNGE names the
    // exact message it removes; the per-message key in its write set
    // records the finer-grained mutation for invalidation consumers.
    info.state_key = std::string("mail:").append(parsed.mailbox);
    if (parsed.verb == "EXPUNGE") {
        info.extra_keys.push_back(
            std::string(info.state_key).append(":msg:").append(parsed.rest));
    }
    return info;
}

Bytes MailService::execute(ByteView request) {
    const Parsed parsed = parse_line(request);
    if (parsed.verb == "LIST") {
        const auto it = mailboxes_.find(parsed.mailbox);
        Bytes out = hybster::take_result_buffer();
        append_number(out, it == mailboxes_.end()
                               ? 0
                               : it->second.messages.size());
        if (it != mailboxes_.end()) {
            for (const auto& [id, _] : it->second.messages) {
                out.push_back(' ');
                append_number(out, id);
            }
        }
        return out;
    }
    if (parsed.verb == "FETCH") {
        const auto it = mailboxes_.find(parsed.mailbox);
        if (it == mailboxes_.end()) return reply_of("NO such mailbox");
        const auto msg = it->second.messages.find(parse_id(parsed.rest));
        if (msg == it->second.messages.end()) {
            return reply_of("NO such message");
        }
        return reply_of(msg->second);
    }
    if (parsed.verb == "APPEND") {
        Mailbox& mailbox =
            mailboxes_.try_emplace(std::string(parsed.mailbox)).first->second;
        const std::uint64_t id = mailbox.next_id++;
        mailbox.messages[id] = parsed.rest;
        Bytes out = reply_of("OK ");
        append_number(out, id);
        return out;
    }
    if (parsed.verb == "EXPUNGE") {
        const auto it = mailboxes_.find(parsed.mailbox);
        if (it != mailboxes_.end() &&
            it->second.messages.erase(parse_id(parsed.rest)) > 0) {
            return reply_of("OK");
        }
        return reply_of("NO such message");
    }
    return reply_of("BAD command");
}

Bytes MailService::checkpoint() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(mailboxes_.size()));
    for (const auto& [name, mailbox] : mailboxes_) {
        w.str(name);
        w.u64(mailbox.next_id);
        w.u32(static_cast<std::uint32_t>(mailbox.messages.size()));
        for (const auto& [id, text] : mailbox.messages) {
            w.u64(id);
            w.str(text);
        }
    }
    return std::move(w).take();
}

void MailService::restore(ByteView snapshot) {
    mailboxes_.clear();
    Reader r(snapshot);
    const std::uint32_t mailbox_count = r.u32();
    for (std::uint32_t i = 0; i < mailbox_count; ++i) {
        const std::string name = r.str();
        Mailbox& mailbox = mailboxes_[name];
        mailbox.next_id = r.u64();
        const std::uint32_t message_count = r.u32();
        for (std::uint32_t j = 0; j < message_count; ++j) {
            const std::uint64_t id = r.u64();
            mailbox.messages[id] = r.str();
        }
    }
}

sim::Duration MailService::execution_cost(ByteView request) const {
    return sim::nanoseconds(1'000 + request.size() / 8);
}

Bytes MailService::make_list(std::string_view mailbox) {
    return to_bytes("LIST " + std::string(mailbox));
}

Bytes MailService::make_fetch(std::string_view mailbox, std::uint64_t id) {
    return to_bytes("FETCH " + std::string(mailbox) + " " +
                    std::to_string(id));
}

Bytes MailService::make_append(std::string_view mailbox,
                               std::string_view text) {
    return to_bytes("APPEND " + std::string(mailbox) + " " +
                    std::string(text));
}

Bytes MailService::make_expunge(std::string_view mailbox, std::uint64_t id) {
    return to_bytes("EXPUNGE " + std::string(mailbox) + " " +
                    std::to_string(id));
}

std::size_t MailService::message_count(const std::string& mailbox) const {
    const auto it = mailboxes_.find(mailbox);
    return it == mailboxes_.end() ? 0 : it->second.messages.size();
}

}  // namespace troxy::apps
